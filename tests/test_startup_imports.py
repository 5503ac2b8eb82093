"""Every gqw command starts a fresh process, so what ``import gqw`` and
``import gqw.cli`` pull in is paid on each run.  Neither loads
``dataclasses`` or ``inspect``: together with the ``ast``, ``dis`` and
``tokenize`` that ``inspect`` imports, they cost about 13 ms of start-up,
and gqw's records are plain classes that need none of them.

The import runs in a subprocess without ``site`` (``-S``), so that modules a
site hook of the environment imports cannot mask or fake a result.
"""

from bounded import run_bounded

HEAVY = ("dataclasses", "inspect")


def test_importing_gqw_and_its_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, gqw, gqw.cli\n"
            f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n")
    out = run_bounded(["-S", "-c", code], timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
