"""The benchmark's traced call sites all exist in the program.

``perfbench/spans.py`` wraps module attributes such as
``wsnroute.cli.simulate_lifetime`` during a traced run, and a traced run
exits 3 when one of them is gone. This checks the same list on every test
run, so a refactor that drops or renames a call site fails here first.
"""

import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_call_site_exists():
    # Executed from its source text, so no bytecode cache is written next to it.
    spans = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), spans.__dict__)
    assert spans.BOUNDARIES  # the list was read, not an empty stand-in
    assert spans.Recorder.missing() == []
