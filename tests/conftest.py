import pytest

from lntlab import ProblemParams, shoot, solve_singular, solve_with_criticals

# verdict lines from the acceptance suite, echoed after the pytest summary
ACCEPTANCE_LINES = []


def record_verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def constant_profile(v: float, p: float):
    """Scaled profile of the constant solution u = v: r -> v r**theta."""
    return lambda radii: [v * r ** (2.0 / (p - 1.0)) for r in radii]


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def sing_5_20():
    """Singular solution at N=5, p=20 out to r=5, shared across tests."""
    return solve_singular(ProblemParams(5, 20.0, R=1.0), r_end=5.0)


@pytest.fixture(scope="session")
def shot_gamma10():
    """Regular shot at N=5, p=20, gamma=10 out to r=5."""
    return shoot(10.0, ProblemParams(5, 20.0), r_end=5.0)


@pytest.fixture(scope="session")
def shot_gamma1000():
    """Regular shot at N=5, p=20, gamma=1000: exercises the collapse layer."""
    return shoot(1000.0, ProblemParams(5, 20.0), r_end=2.5)


@pytest.fixture(scope="session")
def sweep_5():
    """Singular solutions with the first critical radius at N=5 over a p sweep."""
    return {p: solve_with_criticals(ProblemParams(5, p), 1)
            for p in (10.0, 20.0, 40.0, 80.0)}
