import json
import re
from pathlib import Path

import pytest

from reports import INPUT_FLAGS, ROOT, TABLE, main, pinned_reports, problem, write_inputs

HEX64 = re.compile(r"[0-9a-fA-F]{64}")
SMALL = [r for r in pinned_reports() if not r.large]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("report", SMALL, ids=[" ".join(r.argv) for r in SMALL])
def test_pinned_report(report, inputs):
    """Each pinned report not marked large exits 0 and prints the bytes its digest pins."""
    assert problem(report, inputs) is None


def test_table_is_well_formed(tmp_path):
    reports = pinned_reports()
    argvs = [r.argv for r in reports]
    assert len(set(argvs)) == len(argvs), "an argv is pinned twice"
    assert all(re.fullmatch(r"[0-9a-f]{64}", r.sha256) for r in reports)
    write_inputs(tmp_path)
    assert all((tmp_path / name).is_file()
               for argv in argvs for flag, name in zip(argv, argv[1:]) if flag in INPUT_FLAGS)
    # the table is the one place that holds a digest
    for path in [ROOT / ".github" / "workflows" / "tier1.yml",
                 *sorted(Path(__file__).parent.glob("*.py"))]:
        assert not HEX64.search(path.read_text()), path


def test_runner_names_a_report_that_differs(tmp_path, capsys):
    # a copy of the table without its large entries, and one digest with a flipped hex digit
    table = json.loads(TABLE.read_text())
    table["reports"] = [rec for rec in table["reports"] if not rec.get("large")]
    entry = table["reports"][0]
    entry["sha256"] = entry["sha256"][:-1] + "01"[entry["sha256"][-1] == "0"]
    copy = tmp_path / "reports.json"
    copy.write_text(json.dumps(table))
    assert main(copy) == 1
    out = capsys.readouterr().out
    assert out.count("differs: ") == 1
    assert f"differs: {' '.join(entry['argv'])} (sha256 " in out
