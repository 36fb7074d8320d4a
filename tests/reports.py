"""Pinned reports: the command lines whose stdout is committed by its sha256.

Every series the program prints is exact, so a change that keeps the results keeps
each report byte for byte.  Two files pin reports:

- ``tests/reports.json``: each entry gives an argv and the sha256 of its stdout, and
  ``"large": true`` marks an entry that takes a tenth of a second or more; its
  ``inputs`` name the model and series files the argv lists read, each made by
  ``perfbench/cases.generate_model`` from a seed or written from a literal;
- ``perfbench/digests.json``: the benchmark's fixed cases, run under
  ``MOTIVIC_CC_MAX_ORDER=40`` as the benchmark runs them.  Table entries run with
  ``MOTIVIC_CC_MAX_ORDER`` unset.

``PYTHONPATH=src python tests/reports.py`` runs every pinned report through
``cli.main`` in this process, with the inputs written into a temporary directory.
It prints the argv of each report that exits non-zero or whose digest differs, and
exits 1 if there is one.  Tier-1 runs the reports not marked large (``test_reports.py``).
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from motivic_cc import cli

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("reports.json")
INPUT_FLAGS = ("--model", "--series")  # the flags whose value names an input file
BENCH_MAX_ORDER = "40"


@dataclass(frozen=True)
class Report:
    argv: tuple[str, ...]
    sha256: str
    large: bool = False
    max_order: str | None = None  # MOTIVIC_CC_MAX_ORDER while it runs; unset when None


def load_bench_cases():
    """The benchmark's ``perfbench/cases.py``, loaded from its file (it is no package)."""
    path = ROOT / "perfbench" / "cases.py"
    spec = importlib.util.spec_from_file_location("perfbench_cases", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up while decorating
    spec.loader.exec_module(module)
    return module


def pinned_reports(table: Path = TABLE) -> list[Report]:
    """The table's reports, then the benchmark's fixed cases."""
    bench = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    return ([Report(tuple(rec["argv"]), rec["sha256"], rec.get("large", False))
             for rec in json.loads(table.read_text())["reports"]]
            + [Report(case.args, bench[case.id], max_order=BENCH_MAX_ORDER)
               for cases in load_bench_cases().FIXED_CASES.values() for case in cases])


def write_inputs(directory: Path, table: Path = TABLE) -> None:
    generate_model = load_bench_cases().generate_model
    for name, spec in json.loads(table.read_text())["inputs"].items():
        doc = generate_model(spec["generate_model"]) if "generate_model" in spec else spec["literal"]
        (directory / name).write_text(json.dumps(doc))


def stdout_of(report: Report, inputs: Path) -> tuple[int, bytes]:
    """Exit code and stdout of ``cli.main`` on the report's argv, its inputs read from
    ``inputs``."""
    argv = [str(inputs / word) if flag in INPUT_FLAGS else word
            for flag, word in zip(("",) + report.argv, report.argv)]
    saved = os.environ.pop(cli.MAX_ORDER_ENV, None)
    if report.max_order is not None:
        os.environ[cli.MAX_ORDER_ENV] = report.max_order
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", newline="\n")
    try:
        with redirect_stdout(out):
            code = cli.main(argv)
        out.flush()
        return code, buf.getvalue()
    finally:
        os.environ.pop(cli.MAX_ORDER_ENV, None)
        if saved is not None:
            os.environ[cli.MAX_ORDER_ENV] = saved


def problem(report: Report, inputs: Path) -> str | None:
    """Why the report does not match its pin, or None when it does."""
    code, out = stdout_of(report, inputs)
    if code != cli.EXIT_OK:
        return f"exit code {code}"
    digest = hashlib.sha256(out).hexdigest()
    return None if digest == report.sha256 else f"sha256 {digest}"


def main(table: Path = TABLE) -> int:
    """Run every pinned report; 1 if one does not match."""
    reports = pinned_reports(table)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp), table)
        for report in reports:
            why = problem(report, Path(tmp))
            if why is not None:
                failed += 1
                print(f"differs: {' '.join(report.argv)} ({why})")
    print(f"{len(reports) - failed} of {len(reports)} pinned reports match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
