"""Smoke-run the narrative scripts and README's examples so they cannot rot."""

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out.splitlines()) > 3


def test_readme_python_blocks_run(capsys):
    # the quick start and the routing example, as documented
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), {"__name__": "__main__"})
    assert "index" in capsys.readouterr().out
