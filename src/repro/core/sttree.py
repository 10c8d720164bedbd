"""The stack-trace tree (STTree) of paper §3.3.

The Analyzer estimates a target generation per allocation *stack trace*,
but NG2C's ``@Gen`` annotation attaches to an allocation *site* (class,
method, line).  Two different call paths can end at the same site with
very different lifetimes — the paper's ``methodD`` example (Listing 1).
The STTree detects such *conflicts* and resolves them by pushing each
trace's target generation up to the nearest ancestor call site that
distinguishes the paths (Algorithm 1); it also implements §4.4's push-up
optimization, hoisting a uniform subtree's target generation to a single
ancestor ``setGeneration`` bracket so the generation is switched once per
subtree entry rather than once per allocation.

Outputs an instrumentation plan: ``@Gen`` annotations for allocation
sites, ``setGeneration`` directives for call sites, and per-allocation
brackets where no distinguishing call site exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ConflictResolutionError, ProfileFormatError
from repro.runtime.code import CodeLocation

#: On-disk marker of the serialized STTree IR.
STTREE_FORMAT = "polm2-sttree"

#: Version of the canonical profile IR.  v1 is the implicit pre-IR form
#: (flat directive lists with no tree); the STTree serialization starts
#: at 2 so profile files and their embedded IR share one version number.
STTREE_SCHEMA_VERSION = 2


class STNode:
    """A node of the STTree.

    Carries the paper's 4-tuple: class name, method name, line number,
    and target generation (meaningful for leaves; intermediate nodes
    default to generation zero until a directive is placed).
    """

    __slots__ = (
        "location",
        "parent",
        "children",
        "is_leaf",
        "target_gen",
        "object_count",
    )

    def __init__(
        self,
        location: Optional[CodeLocation],
        parent: Optional["STNode"],
        is_leaf: bool = False,
    ) -> None:
        self.location = location
        self.parent = parent
        self.children: Dict[Tuple[CodeLocation, bool], STNode] = {}
        self.is_leaf = is_leaf
        self.target_gen = 0
        self.object_count = 0

    @property
    def is_root(self) -> bool:
        return self.location is None

    def child(self, location: CodeLocation, is_leaf: bool) -> Optional["STNode"]:
        return self.children.get((location, is_leaf))

    def ensure_child(self, location: CodeLocation, is_leaf: bool) -> "STNode":
        key = (location, is_leaf)
        node = self.children.get(key)
        if node is None:
            node = STNode(location, self, is_leaf)
            self.children[key] = node
        return node

    def path(self) -> List[CodeLocation]:
        """Locations from the outermost frame down to this node."""
        nodes: List[STNode] = []
        node: Optional[STNode] = self
        while node is not None and not node.is_root:
            nodes.append(node)
            node = node.parent
        return [n.location for n in reversed(nodes)]  # type: ignore[misc]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "call"
        return f"STNode({kind}, {self.location}, gen={self.target_gen})"


@dataclasses.dataclass(frozen=True)
class ConflictGroup:
    """Leaves sharing one allocation site but disagreeing on generation."""

    location: CodeLocation
    generations: FrozenSet[int]
    leaves: Tuple[STNode, ...]


@dataclasses.dataclass
class InstrumentationPlan:
    """What the Instrumenter must do, produced from the tree.

    Attributes:
        annotate_sites: allocation-site locations to mark ``@Gen``.
        call_directives: call-site location -> generation to set on entry.
        alloc_brackets: allocation-site location -> generation, for sites
            that need a per-allocation ``setGeneration`` bracket.
        conflicts: the conflict groups that were detected (Table 1 metric).
        mistenured: allocation paths (innermost frame last) that no
            placement of directives can steer into their estimated
            generation; they allocate where the plan sends them.
    """

    annotate_sites: Set[CodeLocation] = dataclasses.field(default_factory=set)
    call_directives: Dict[CodeLocation, int] = dataclasses.field(default_factory=dict)
    alloc_brackets: Dict[CodeLocation, int] = dataclasses.field(default_factory=dict)
    conflicts: List[ConflictGroup] = dataclasses.field(default_factory=list)
    mistenured: List[Tuple[CodeLocation, ...]] = dataclasses.field(
        default_factory=list
    )

    @property
    def instrumented_site_count(self) -> int:
        return len(self.annotate_sites)

    @property
    def generations_used(self) -> Set[int]:
        gens: Set[int] = set(self.call_directives.values())
        gens.update(self.alloc_brackets.values())
        return gens


class STTree:
    """Builds the stack-trace tree and derives the instrumentation plan."""

    def __init__(self) -> None:
        self.root = STNode(location=None, parent=None)
        self._leaves: List[STNode] = []
        #: Dedup/join accounting of the most recent ``merge`` that
        #: produced this tree (zeros on trees built any other way).
        self.last_merge_stats: Dict[str, int] = {
            "subtrees_deduped": 0,
            "leaves_joined": 0,
            "gen_conflicts": 0,
        }

    # -- construction -------------------------------------------------------------

    def insert(
        self, trace: Sequence[CodeLocation], target_gen: int, object_count: int = 1
    ) -> STNode:
        """Insert one allocation stack trace (innermost frame last).

        The final frame becomes (or merges into) a leaf carrying the
        estimated target generation.
        """
        if not trace:
            raise ValueError("cannot insert an empty stack trace")
        if target_gen < 0:
            raise ValueError("target generation cannot be negative")
        node = self.root
        for location in trace[:-1]:
            node = node.ensure_child(location, is_leaf=False)
        existing = node.child(trace[-1], is_leaf=True)
        leaf = node.ensure_child(trace[-1], is_leaf=True)
        if existing is not None and existing.target_gen != target_gen:
            raise ConflictResolutionError(
                f"trace re-inserted with generation {target_gen} != "
                f"{existing.target_gen}: {trace}"
            )
        if existing is None:
            self._leaves.append(leaf)
        leaf.target_gen = target_gen
        leaf.object_count += object_count
        return leaf

    @classmethod
    def build(
        cls, estimates: Iterable[Tuple[Sequence[CodeLocation], int, int]]
    ) -> "STTree":
        """Build from ``(trace, target_gen, object_count)`` triples."""
        tree = cls()
        for trace, gen, count in estimates:
            tree.insert(trace, gen, count)
        return tree

    @property
    def leaves(self) -> List[STNode]:
        return list(self._leaves)

    # -- the canonical profile IR (versioned serialization) -------------------------
    #
    # The STTree is the one in-memory profile intermediate representation:
    # the Analyzer stages produce it, the Instrumenter and the profile
    # store consume it, and this payload is its canonical on-disk form.
    # Entries are (full stack path, target generation, object count)
    # triples sorted canonically, so two trees with the same leaves
    # serialize identically regardless of insertion order — which is what
    # makes ``digest()`` a content-hash id usable for byte-for-byte
    # parity checks.

    def to_payload(self) -> Dict:
        """The canonical, insertion-order-independent IR payload."""
        entries = [
            [
                [list(location) for location in leaf.path()],
                leaf.target_gen,
                leaf.object_count,
            ]
            for leaf in self._leaves
        ]
        entries.sort()
        return {
            "format": STTREE_FORMAT,
            "schema_version": STTREE_SCHEMA_VERSION,
            "entries": entries,
        }

    def digest(self) -> str:
        """Content-hash id of the serialized IR (sha256 hex)."""
        canonical = json.dumps(
            self.to_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def to_json(self) -> str:
        payload = self.to_payload()
        payload["content_hash"] = self.digest()
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Dict) -> "STTree":
        """Rebuild a tree from :meth:`to_payload` output.

        Raises :class:`~repro.errors.ProfileFormatError` on a foreign
        format marker, a schema version newer than this code supports,
        or malformed entries.
        """
        if not isinstance(payload, dict) or payload.get("format") != STTREE_FORMAT:
            raise ProfileFormatError(
                f"not a serialized STTree: format marker is "
                f"{payload.get('format')!r} (expected {STTREE_FORMAT!r})"
                if isinstance(payload, dict)
                else f"not a serialized STTree payload: {type(payload).__name__}"
            )
        version = payload.get("schema_version")
        if not isinstance(version, int) or version < 2:
            raise ProfileFormatError(
                f"invalid STTree schema_version {version!r} "
                f"(expected an int >= 2)"
            )
        if version > STTREE_SCHEMA_VERSION:
            raise ProfileFormatError(
                f"profile IR schema v{version} is newer than the supported "
                f"v{STTREE_SCHEMA_VERSION}; upgrade repro to read it"
            )
        tree = cls()
        try:
            for path, target_gen, object_count in payload["entries"]:
                trace = tuple(
                    (frame[0], frame[1], int(frame[2])) for frame in path
                )
                tree.insert(trace, int(target_gen), int(object_count))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProfileFormatError(f"malformed STTree entry: {exc}") from exc
        return tree

    @classmethod
    def from_json(cls, text: str) -> "STTree":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ProfileFormatError(f"invalid STTree JSON: {exc}") from exc
        tree = cls.from_payload(payload)
        stored_hash = payload.get("content_hash")
        if stored_hash is not None and stored_hash != tree.digest():
            raise ProfileFormatError(
                "STTree content hash mismatch: file is corrupt or was "
                "edited by hand"
            )
        return tree

    # -- merging (the profile service's cross-cycle / cross-VM combine) --------------
    #
    # ``merge`` is a semilattice join over leaves keyed by their full
    # stack path.  Two trees observing the same path join their evidence
    # by taking the leaf that is maximal under the total order
    # ``(object_count, target_gen)`` — the existing survival-count rule:
    # the estimate backed by more observed objects wins, with the higher
    # generation as the deterministic tie-break.  Because the join is a
    # max under a total order it is associative, commutative, and
    # idempotent — merging a profile with itself is the identity, which
    # is what lets a crash-recovering daemon re-merge a cycle it already
    # committed without corrupting the served profile.
    #
    # Leaves present in only one input are copied through unchanged, and
    # structurally identical subtrees are detected by their content hash
    # (the same sha256 IR hashing ``digest()`` uses, applied per node) so
    # they are copied wholesale instead of walked leaf by leaf — the
    # common case when many VM instances of one workload report
    # near-identical trees.

    def merge(self, *others: "STTree") -> "STTree":
        """Combine this tree with ``others`` into a new tree.

        Returns a fresh :class:`STTree`; the inputs are not modified.
        ``last_merge_stats`` on the result records how much work the
        content-hash dedup saved.
        """
        stats = {"subtrees_deduped": 0, "leaves_joined": 0, "gen_conflicts": 0}
        result = STTree()
        self._copy_children(self.root, result, result.root)
        for other in others:
            # The hash memo is keyed by node identity, so it must not
            # outlive the trees it describes (a freed node's id can be
            # reused); scope it to the pair being merged.
            hash_memo: Dict[int, str] = {}
            target = STTree()
            self._merge_nodes(
                result.root, other.root, target, target.root, stats, hash_memo
            )
            result = target
        result.last_merge_stats = stats
        return result

    @classmethod
    def merge_all(cls, trees: Sequence["STTree"]) -> "STTree":
        """Join any number of trees (empty input: an empty tree)."""
        trees = list(trees)
        if not trees:
            return cls()
        return trees[0].merge(*trees[1:])

    @staticmethod
    def _subtree_hash(node: STNode, memo: Dict[int, str]) -> str:
        """Content hash of one subtree (same IR hashing as ``digest``)."""
        cached = memo.get(id(node))
        if cached is not None:
            return cached
        payload = [
            list(node.location) if node.location is not None else None,
            node.is_leaf,
            node.target_gen if node.is_leaf else 0,
            node.object_count if node.is_leaf else 0,
            sorted(
                STTree._subtree_hash(child, memo)
                for child in node.children.values()
            ),
        ]
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        memo[id(node)] = digest
        return digest

    def _copy_children(
        self, source: STNode, target_tree: "STTree", target: STNode
    ) -> None:
        """Deep-copy ``source``'s subtrees under ``target``."""
        for (location, is_leaf), child in source.children.items():
            copied = target.ensure_child(location, is_leaf)
            if is_leaf:
                copied.target_gen = child.target_gen
                copied.object_count = child.object_count
                target_tree._leaves.append(copied)
            else:
                self._copy_children(child, target_tree, copied)

    def _merge_nodes(
        self,
        a: STNode,
        b: STNode,
        target_tree: "STTree",
        target: STNode,
        stats: Dict[str, int],
        hash_memo: Dict[int, str],
    ) -> None:
        """Join the children of ``a`` and ``b`` under ``target``.

        Child keys are visited in sorted order: plan derivation walks
        children in insertion order, so a merged tree must be built in
        an order independent of Python's per-process hash seed.
        """
        for key in sorted(a.children.keys() | b.children.keys()):
            location, is_leaf = key
            in_a = a.children.get(key)
            in_b = b.children.get(key)
            if in_a is None or in_b is None:
                source = in_a if in_a is not None else in_b
                copied = target.ensure_child(location, is_leaf)
                if is_leaf:
                    copied.target_gen = source.target_gen
                    copied.object_count = source.object_count
                    target_tree._leaves.append(copied)
                else:
                    self._copy_children(source, target_tree, copied)
                continue
            if is_leaf:
                stats["leaves_joined"] += 1
                if in_a.target_gen != in_b.target_gen:
                    stats["gen_conflicts"] += 1
                winner = max(
                    (in_a, in_b),
                    key=lambda leaf: (leaf.object_count, leaf.target_gen),
                )
                joined = target.ensure_child(location, True)
                joined.target_gen = winner.target_gen
                joined.object_count = winner.object_count
                target_tree._leaves.append(joined)
                continue
            if self._subtree_hash(in_a, hash_memo) == self._subtree_hash(
                in_b, hash_memo
            ):
                # Identical subtrees: one wholesale copy, no join walk.
                stats["subtrees_deduped"] += 1
                copied = target.ensure_child(location, False)
                self._copy_children(in_a, target_tree, copied)
                continue
            self._merge_nodes(
                in_a, in_b, target_tree,
                target.ensure_child(location, False), stats, hash_memo,
            )

    # -- conflict detection (Algorithm 1, Detect Conflicts) -------------------------

    def detect_conflicts(self) -> List[ConflictGroup]:
        """Group leaves by allocation site; disagreeing groups conflict."""
        by_location: Dict[CodeLocation, List[STNode]] = {}
        for leaf in self._leaves:
            by_location.setdefault(leaf.location, []).append(leaf)  # type: ignore[arg-type]
        conflicts: List[ConflictGroup] = []
        for location, leaves in sorted(by_location.items()):
            gens = {leaf.target_gen for leaf in leaves}
            if len(gens) > 1:
                conflicts.append(
                    ConflictGroup(
                        location=location,
                        generations=frozenset(gens),
                        leaves=tuple(leaves),
                    )
                )
        return conflicts

    # -- conflict resolution (Algorithm 1, Solve Conflicts) ---------------------------

    def solve_conflict(
        self,
        group: ConflictGroup,
        taken: Dict[CodeLocation, int],
    ) -> Dict[STNode, STNode]:
        """Find, per conflicting leaf, the distinguishing ancestor node.

        Walks all leaves upward in lockstep; a leaf resolves as soon as its
        cursor's location differs from the cursors of every *still-pending
        leaf with a different target generation* and does not collide with
        an already-taken directive of a different generation.

        Returns a map leaf -> ancestor node where the ``setGeneration``
        directive must be placed.
        """
        cursors: Dict[STNode, STNode] = {leaf: leaf for leaf in group.leaves}
        pending: List[STNode] = list(group.leaves)
        resolution: Dict[STNode, STNode] = {}
        while pending:
            for leaf in pending:
                parent = cursors[leaf].parent
                if parent is None or parent.is_root:
                    raise ConflictResolutionError(
                        f"conflict at {group.location} cannot be resolved: "
                        f"allocation paths are identical up to the entry point"
                    )
                cursors[leaf] = parent
            still_pending: List[STNode] = []
            for leaf in pending:
                node = cursors[leaf]
                clashes = any(
                    other is not leaf
                    and other.target_gen != leaf.target_gen
                    and cursors[other].location == node.location
                    for other in pending
                )
                already = taken.get(node.location)  # type: ignore[arg-type]
                if not clashes and (already is None or already == leaf.target_gen):
                    resolution[leaf] = node
                else:
                    still_pending.append(leaf)
            pending = still_pending
        return resolution

    # -- full plan (conflict resolution + §4.4 push-up) ---------------------------------

    def instrumentation_plan(self, push_up: bool = True) -> InstrumentationPlan:
        """Derive the complete instrumentation plan.

        1. Detect conflicts and place their directives at distinguishing
           ancestors (Algorithm 1).
        2. For the remaining annotated leaves, hoist uniform subtrees'
           generations to a single ancestor directive (push-up, §4.4) — or,
           with ``push_up=False`` (the ablation), bracket every allocation
           individually.
        """
        plan = InstrumentationPlan()
        plan.conflicts = self.detect_conflicts()
        conflict_leaves: Set[int] = set()
        for group in plan.conflicts:
            resolution = self.solve_conflict(group, plan.call_directives)
            for leaf, node in resolution.items():
                conflict_leaves.add(id(leaf))
                if leaf.target_gen >= 1:
                    plan.annotate_sites.add(leaf.location)  # type: ignore[arg-type]
                if leaf.target_gen >= 0:
                    plan.call_directives[node.location] = leaf.target_gen  # type: ignore[index]

        # Annotate every remaining long-lived leaf.
        free_leaves = [
            leaf
            for leaf in self._leaves
            if id(leaf) not in conflict_leaves and leaf.target_gen >= 1
        ]
        for leaf in free_leaves:
            plan.annotate_sites.add(leaf.location)  # type: ignore[arg-type]

        if push_up:
            self._place_push_up(plan, conflict_leaves)
        else:
            for leaf in free_leaves:
                plan.alloc_brackets[leaf.location] = leaf.target_gen  # type: ignore[index]
        self._verify_and_repair(plan)
        return plan

    # -- plan verification ------------------------------------------------------------

    @staticmethod
    def _simulate(path: List[CodeLocation], plan: InstrumentationPlan) -> int:
        """Execute the instrumented semantics along one allocation path."""
        target = 0
        for location in path[:-1]:
            if location in plan.call_directives:
                target = plan.call_directives[location]
        leaf = path[-1]
        if leaf not in plan.annotate_sites:
            return 0
        if leaf in plan.alloc_brackets:
            return plan.alloc_brackets[leaf]
        return target

    def _violations(self, plan: InstrumentationPlan) -> List[STNode]:
        return [
            leaf
            for leaf in self._leaves
            if self._simulate(leaf.path(), plan) != leaf.target_gen
        ]

    def _verify_and_repair(self, plan: InstrumentationPlan) -> None:
        """Fix directive interference between unrelated paths.

        Directives are keyed by code location, and the same location can
        occur in several tree contexts: a ``setGeneration`` placed for
        one subtree then fires on every other path through that location
        — the multi-path problem of §3.3 one level above the leaves.
        Each surviving mismatch is repaired by overriding *later* on the
        affected path: a per-allocation bracket when the leaf's estimate
        is unambiguous, otherwise a directive at the deepest free call
        site past the interfering one.  Every tentative fix is validated
        by global re-simulation so a repair never breaks other paths.

        A path can be beyond repair: when the only call site telling it
        apart from a path with another generation already carries a third
        generation other paths depend on, every fix breaks as many paths
        as it mends.  Such paths stay mis-tenured and are listed in
        ``plan.mistenured``; every other path allocates exactly into its
        estimated generation.
        """
        gens_by_leaf_location: Dict[CodeLocation, Set[int]] = {}
        for leaf in self._leaves:
            gens_by_leaf_location.setdefault(leaf.location, set()).add(  # type: ignore[arg-type]
                leaf.target_gen
            )
        for _ in range(2 * len(self._leaves) + 1):
            violations = self._violations(plan)
            if not violations:
                return
            progressed = False
            for leaf in violations:
                path = leaf.path()
                if self._simulate(path, plan) == leaf.target_gen:
                    continue  # fixed as a side effect of an earlier repair
                if self._try_repair(leaf, path, plan, gens_by_leaf_location):
                    progressed = True
            if not progressed:
                break
        plan.mistenured = [tuple(leaf.path()) for leaf in self._violations(plan)]

    def _try_repair(
        self,
        leaf: STNode,
        path: List[CodeLocation],
        plan: InstrumentationPlan,
        gens_by_leaf_location: Dict[CodeLocation, Set[int]],
    ) -> bool:
        before = len(self._violations(plan))
        # Preferred fix: a per-allocation bracket (legal only when every
        # path into this site agrees on the generation).
        if len(gens_by_leaf_location[leaf.location]) == 1:  # type: ignore[index]
            plan.annotate_sites.add(leaf.location)  # type: ignore[arg-type]
            saved = plan.alloc_brackets.get(leaf.location)  # type: ignore[arg-type]
            plan.alloc_brackets[leaf.location] = leaf.target_gen  # type: ignore[index]
            if len(self._violations(plan)) < before:
                return True
            if saved is None:
                del plan.alloc_brackets[leaf.location]  # type: ignore[arg-type]
            else:  # pragma: no cover - defensive
                plan.alloc_brackets[leaf.location] = saved  # type: ignore[index]
        # Otherwise, override at the deepest call site not already taken.
        for location in reversed(path[:-1]):
            taken = plan.call_directives.get(location)
            if taken is not None and taken != leaf.target_gen:
                continue
            saved_directive = plan.call_directives.get(location)
            plan.call_directives[location] = leaf.target_gen
            if len(self._violations(plan)) < before:
                return True
            if saved_directive is None:
                del plan.call_directives[location]
            else:
                plan.call_directives[location] = saved_directive
        return False

    def _place_push_up(
        self, plan: InstrumentationPlan, conflict_leaves: Set[int]
    ) -> None:
        """Hoist uniform subtrees' target generations to ancestor calls."""
        gens_memo: Dict[int, Set[int]] = {}

        def gens_under(node: STNode) -> Set[int]:
            cached = gens_memo.get(id(node))
            if cached is not None:
                return cached
            if node.is_leaf:
                if id(node) in conflict_leaves or node.target_gen < 1:
                    result: Set[int] = set()
                else:
                    result = {node.target_gen}
            else:
                result = set()
                for child in node.children.values():
                    result |= gens_under(child)
            gens_memo[id(node)] = result
            return result

        def visit(node: STNode, inherited: int) -> None:
            gens = gens_under(node)
            if not gens:
                return
            if node.is_leaf:
                if node.target_gen != inherited:
                    plan.alloc_brackets[node.location] = node.target_gen  # type: ignore[index]
                return
            if len(gens) == 1:
                gen = next(iter(gens))
                taken = plan.call_directives.get(node.location)  # type: ignore[arg-type]
                if gen == inherited and taken is None:
                    return
                if taken is None:
                    plan.call_directives[node.location] = gen  # type: ignore[index]
                    return
                if taken == gen:
                    return
                # Location already carries a conflicting directive; push the
                # generation further down instead.
            for child in node.children.values():
                visit(child, inherited)

        for child in self.root.children.values():
            visit(child, 0)
