"""The benchmark harness in perfbench/ still binds to the library's names.

perfbench wraps FieldContext's table accessors, builds tables by name,
clears verify's caches by name and swaps cli.run_verify in and out by
attribute; a rename in src/ would break every benchmark run without failing
any other test.  The harness is imported, not changed.
"""

import sys
from pathlib import Path

from charperm import build_context, cli, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_binds_to_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from tracer import Tracer
    import workloads

    with Tracer().active():     # install() raises on a name it cannot find
        pass
    workloads.force_tables(build_context(1, 3))
    assert callable(verify._worker_context.cache_clear)
    assert callable(verify._tables.clear)
    assert callable(cli.run_verify)
