"""Tier-1 gate over a pytest junit report.

Passes only when the report has no errors and exactly one failure: the
deliberate criterion 6b, which shows that the printed resultant-margin
inequality is false (see README and ROADMAP).  A new failure, an error
(a collection error included) or a passing 6b all fail the gate.

    python .github/tier1_gate.py tier1-junit.xml
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURES = {"tests.test_acceptance::test_criterion_6b_resultant_margin_sweep"}


def gate(path: str) -> list[str]:
    """The reasons the report at path fails the gate; empty when it passes."""
    root = ET.parse(path).getroot()
    failed, errored = set(), set()
    cases = list(root.iter("testcase"))
    for case in cases:
        name = f"{case.get('classname')}::{case.get('name')}"
        if case.find("failure") is not None:
            failed.add(name)
        if case.find("error") is not None:
            errored.add(name)
    suite_errors = sum(int(s.get("errors", 0)) for s in root.iter("testsuite"))
    problems = []
    if not cases:
        problems.append("no test ran")
    if errored or suite_errors:
        problems.append(f"{max(len(errored), suite_errors)} error(s): {sorted(errored)}")
    if failed - EXPECTED_FAILURES:
        problems.append(f"unexpected failures: {sorted(failed - EXPECTED_FAILURES)}")
    if EXPECTED_FAILURES - failed:
        problems.append(f"expected failures that did not fail: {sorted(EXPECTED_FAILURES - failed)}")
    return problems


if __name__ == "__main__":
    problems = gate(sys.argv[1])
    for line in problems:
        print(f"tier-1 gate: {line}")
    if not problems:
        print("tier-1 gate: passed (the only failure is criterion 6b)")
    sys.exit(1 if problems else 0)
