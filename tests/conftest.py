import pytest

from palfact.eertree import PalindromeIndex

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def index_builds(monkeypatch):
    """Counts PalindromeIndex constructions from the moment it is requested."""
    builds = []
    init = PalindromeIndex.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PalindromeIndex, "__init__", counting)
    return builds
