"""Input validation of ``scripts/trace_tools.py capture``."""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location("trace_tools", REPO / "scripts" / "trace_tools.py")
trace_tools = importlib.util.module_from_spec(_spec)
assert _spec.loader is not None
_spec.loader.exec_module(trace_tools)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--scale", "-1"], "--scale: must be a positive number"),
        (["--scale", "0"], "--scale: must be a positive number"),
        (["--scale", "nan"], "--scale: must be a positive number"),
        (["--scale", "inf"], "--scale: must be a positive number"),
        (["--config", "BOGUS"], "--config: invalid choice: 'BOGUS'"),
    ],
)
def test_capture_rejects_bad_input_before_running(tmp_path, capsys, flags, message):
    out = tmp_path / "cell.rtl"
    with pytest.raises(SystemExit) as exc:
        trace_tools.main(["capture", "fig6", "--out", str(out), *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
