"""IncrementalAnalyzer == batch oracle on the golden scenarios.

Each parity scenario is run once through the full profiling stack; the
captured recording (allocation streams + snapshot store) is then analyzed
twice — by the frozen batch oracle (``tests/core/batch_analyzer_oracle``)
and by the streaming :class:`~repro.core.stages.IncrementalAnalyzer` —
and the two serialized STTree IRs must match byte for byte (same digest,
same JSON).
"""

import pytest

from tests.core.batch_analyzer_oracle import batch_sttree
from tests.integration.parity_harness import (
    SCENARIOS,
    _record_scenario,
    analyze_sttree,
)


@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=lambda s: f"{s[0]}-{s[1]}-seed{s[3]}"
)
def test_streaming_tree_is_byte_identical(scenario):
    _vm, recorder, dumper = _record_scenario(*scenario)
    records, store = recorder.records, dumper.store
    assert len(store) > 0
    assert records.total_allocations > 0

    batch_tree = batch_sttree(records, list(store))
    streamed_tree = analyze_sttree(records, store)

    assert streamed_tree.digest() == batch_tree.digest()
    assert streamed_tree.to_json() == batch_tree.to_json()
