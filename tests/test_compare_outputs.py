import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _tree(root: Path, time_s: str, plot: str) -> Path:
    root.mkdir()
    (root / "summary.json").write_text('{"rows": []}\n')
    (root / "trace_a.csv").write_text(f"k,time_s,objective\n0,{time_s},1.5\n")
    (root / "plot_time_10x8.csv").write_text(plot)
    return root


def test_time_columns_and_plot_time_ignored(tmp_path, capsys):
    a = _tree(tmp_path / "a", "0.01", "t,x\n0.01,1\n")
    b = _tree(tmp_path / "b", "0.02", "t,x\n0.03,1\n")
    assert compare_outputs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "2 files compared, 0 differences\n"


def test_difference_and_missing_file_fail(tmp_path, capsys):
    a = _tree(tmp_path / "a", "0.01", "")
    b = _tree(tmp_path / "b", "0.01", "")
    (b / "trace_a.csv").write_text("k,time_s,objective\n0,0.01,1.25\n")
    (a / "runs_manifest.json").write_text("{}\n")
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"only in {a}: runs_manifest.json",
        "differs: trace_a.csv",
        "2 files compared, 2 differences",
    ]


def test_needs_two_directories(tmp_path):
    assert compare_outputs.main([str(tmp_path)]) == 2
    assert compare_outputs.main([str(tmp_path), str(tmp_path / "missing")]) == 2
