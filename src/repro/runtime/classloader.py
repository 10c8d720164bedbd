"""Class loading with agent transformer hooks.

Java agents register ``ClassFileTransformer`` instances that may rewrite
each class as it is loaded.  The simulated :class:`ClassLoader` does the
same over :class:`~repro.runtime.code.ClassModel` objects: each registered
:class:`ClassTransformer` receives a private copy of the class being loaded
and may mutate it (flip ``@Gen`` flags, add Recorder hooks, set call-site
generation directives).  Workload code always executes against the loaded,
transformed models.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Protocol, Tuple

from repro.errors import ClassNotLoadedError, DuplicateClassError
from repro.runtime.code import ClassModel, MethodModel


class ClassTransformer(Protocol):
    """The ``ClassFileTransformer`` analogue implemented by agents."""

    def transform(self, class_model: ClassModel) -> ClassModel:
        """Return the (possibly rewritten) class model to load."""
        ...  # pragma: no cover - protocol


class ClassLoader:
    """Loads class models, passing each through registered transformers."""

    def __init__(self) -> None:
        self._transformers: List[ClassTransformer] = []
        self._loaded: Dict[str, ClassModel] = {}
        #: ``(class, method) -> MethodModel`` of every loaded class, filled
        #: at load time: classes never reload, so a call resolves its
        #: callee with one dict probe (threads probe it directly).
        self._methods: Dict[Tuple[str, str], MethodModel] = {}
        #: Number of classes that were modified by at least one transformer
        #: (load-time instrumentation work, cf. the paper's note that the
        #: Instrumenter's overhead exists only while classes load).
        self.transformed_class_count = 0
        #: Sink called with each fully transformed class; the owning VM
        #: points this at its CLASS_LOAD event publication.
        self.on_loaded: Optional[Callable[[ClassModel], None]] = None

    # -- agent registration -------------------------------------------------------

    def add_transformer(self, transformer: ClassTransformer) -> None:
        self._transformers.append(transformer)

    def remove_transformer(self, transformer: ClassTransformer) -> None:
        self._transformers.remove(transformer)

    @property
    def transformers(self) -> List[ClassTransformer]:
        return list(self._transformers)

    # -- loading --------------------------------------------------------------------

    def load(self, class_model: ClassModel) -> ClassModel:
        """Load a class, applying every transformer in registration order.

        The input model is never mutated: transformers work on a copy, as
        bytecode rewriting produces a new class file.
        """
        if class_model.name in self._loaded:
            raise DuplicateClassError(f"class {class_model.name!r} already loaded")
        loaded = class_model.copy()
        transformed = False
        for transformer in self._transformers:
            result = transformer.transform(loaded)
            if result is not loaded:
                transformed = True
            loaded = result
        if self._transformers and transformed:
            self.transformed_class_count += 1
        self._loaded[loaded.name] = loaded
        for name, method in loaded.methods.items():
            self._methods[(loaded.name, name)] = method
        if self.on_loaded is not None:
            self.on_loaded(loaded)
        return loaded

    def load_all(self, class_models: Iterable[ClassModel]) -> List[ClassModel]:
        return [self.load(model) for model in class_models]

    # -- lookup ----------------------------------------------------------------------

    def lookup(self, class_name: str) -> ClassModel:
        try:
            return self._loaded[class_name]
        except KeyError:
            raise ClassNotLoadedError(f"class {class_name!r} not loaded") from None

    def get(self, class_name: str) -> Optional[ClassModel]:
        return self._loaded.get(class_name)

    def method(self, class_name: str, method_name: str) -> MethodModel:
        method = self._methods.get((class_name, method_name))
        if method is None:
            self.lookup(class_name)  # raises for a class never loaded
            raise ClassNotLoadedError(
                f"class {class_name!r} has no method {method_name!r}"
            )
        return method

    @property
    def loaded_classes(self) -> List[str]:
        return sorted(self._loaded)
