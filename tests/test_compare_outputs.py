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
        "  objective: largest relative difference 0.167",
        "2 files compared, 2 differences",
    ]


def test_differing_trace_names_only_the_column_that_moved(tmp_path, capsys):
    head = "k,time_s,objective,feas,lyapunov\n"
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "trace_a.csv").write_text(head + "0,0.1,4,0.5,nan\n1,0.2,2,0.25,3\n")
    (b / "trace_a.csv").write_text(head + "0,0.3,4,0.5,nan\n1,0.4,2,0.25,3.0000000000003\n")
    (a / "plot_iters_10x8.csv").write_text("k,gd\n0,1\n")
    (b / "plot_iters_10x8.csv").write_text("k,gd\n0,2\n")
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: plot_iters_10x8.csv",
        "differs: trace_a.csv",
        "  lyapunov: largest relative difference 1e-13",
        "2 files compared, 2 differences",
    ]
    (b / "trace_a.csv").write_text(head + "0,0.3,4,0.5,nan\n")
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert "  header or row count differs" in capsys.readouterr().out.splitlines()


def test_needs_two_directories(tmp_path):
    assert compare_outputs.main([str(tmp_path)]) == 2
    assert compare_outputs.main([str(tmp_path), str(tmp_path / "missing")]) == 2
