"""Prints a one-line verdict per numbered acceptance criterion at the
end of the run, so the pass/fail status is visible without digging
through the full pytest listing."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

_CRITERIA: dict[int, tuple[str, str]] = {}

_LABELS = {
    1: "trefoil-surgery reproduction",
    2: "bound arithmetic on the model complex",
    3: "unit refusal and classification",
    4: "mapping-torus eigenvalue criterion",
    5: "mod-p dominance property suite",
    6: "Euler invariance across targets",
    7: "jump positivity",
    8: "component-sum / order-check coherence",
    9: "order-check oracle equivalence",
}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_criterion_"):
        try:
            num = int(name.split("_")[2])
        except (IndexError, ValueError):
            return
        _CRITERIA[num] = (report.outcome, name)


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_CRITERIA):
        outcome, _ = _CRITERIA[num]
        label = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(
            f"criterion {num} ({_LABELS.get(num, 'unnamed')}): {label}"
        )


@pytest.fixture()
def bench_workloads(monkeypatch):
    """The benchmark's ``bench/workloads.py``, loaded by path (it imports
    its sibling ``zpoly``), for tests that check CLI operations against
    the benchmark's closed-form oracle."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_workloads", module)
    spec.loader.exec_module(module)
    return module
