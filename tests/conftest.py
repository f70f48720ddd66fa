from criterion_report import RESULTS


def pytest_terminal_summary(terminalreporter):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed, detail in sorted(RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] criterion {number:2d}: {description}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
