"""An oversized `samples.count` is unusable input: exit 2 with the location
`samples.count` and nothing on stderr.  numpy refuses either count at once
(a MemoryError for 10^15 points, a ValueError for an array too big to
describe at 10^18), so no memory is allocated."""

import json
import subprocess
import sys

import pytest

from chernsode import cli


def _problem(count):
    return {"dimension": 1, "F": ["x1*v1^2 - 1/2*t*v1"],
            "samples": {"mode": "random", "count": count, "seed": 1}}


@pytest.mark.parametrize("count", [10 ** 15, 10 ** 18])
@pytest.mark.parametrize("task", ["verify", "analyze", "jets"])
def test_oversized_count_is_located(tmp_path, task, count):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_problem(count)))
    proc = subprocess.run([sys.executable, "-m", "chernsode.cli", task,
                           str(path)], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (2, "")
    err = json.loads(proc.stdout)["error"]
    assert err["kind"] == "validation"
    assert err["location"] == "samples.count"


def test_memory_error_exits_2(tmp_path, monkeypatch, capsys):
    """A MemoryError from anywhere in a task is unusable input, not a
    traceback."""
    def exhausted(problem):
        raise MemoryError

    monkeypatch.setitem(cli.TASK_RUNNERS, "analyze", exhausted)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_problem(3)))
    assert cli.main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["error"]["kind"] == "MemoryError"
