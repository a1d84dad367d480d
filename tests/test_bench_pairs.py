"""scripts/bench_pairs.py's run_once on a fake checkout: each way a run ends, and what it keeps."""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

FAKE_RUN = textwrap.dedent('''
    import json, sys
    case = sys.argv[sys.argv.index("--workload") + 1]
    result = {"correct": case == "passes", "attempted": 3, "failed": int(case != "passes"),
              "metrics": {"wall_s": {"value": 0.5, "unit": "s"}}}
    if case == "crashes":
        print("Traceback: boom", file=sys.stderr)
        sys.exit(1)
    print(json.dumps({"workload": case, "failures": [] if case == "passes" else ["body 1: csv"]}))
    print("half a line of" if case == "garbles" else json.dumps(result))
''')


@pytest.fixture(scope="module")
def bench_pairs():
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    return root


def test_a_passing_run_keeps_its_metrics(bench_pairs, checkout):
    result = bench_pairs.run_once(checkout, "passes", 7919)
    assert result["correct"] and result["metrics"]["wall_s"]["value"] == 0.5
    assert result["metrics"]["peak_rss_tree_mb"]["value"] > 0
    assert not {"error", "failures", "stdout"} & result.keys()


def test_a_wrong_output_keeps_its_failures(bench_pairs, checkout):
    # exit 0 with an empty stderr: only the report line says what failed
    result = bench_pairs.run_once(checkout, "fails", 7919)
    assert not result["correct"] and result["failures"] == ["body 1: csv"]
    assert result["error"] == "" and result["metrics"]["wall_s"]["value"] == 0.5


def test_a_last_line_that_is_not_json_is_a_failed_run(bench_pairs, checkout):
    result = bench_pairs.run_once(checkout, "garbles", 7919)
    assert not result["correct"] and result["stdout"].endswith("half a line of")
    assert json.loads(result["stdout"].splitlines()[0])["failures"] == ["body 1: csv"]
    assert set(result["metrics"]) == {"peak_rss_tree_mb"}


def test_a_crash_keeps_its_stderr(bench_pairs, checkout):
    result = bench_pairs.run_once(checkout, "crashes", 7919)
    assert not result["correct"] and "Traceback: boom" in result["error"]
    assert set(result["metrics"]) == {"peak_rss_tree_mb"}
