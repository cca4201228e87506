"""Linter driver behaviour: config, suppression, dedup, dispatch."""

import pytest

from repro.core import SFG, Clock, Register, Sig, System, TimedProcess, actor
from repro.fixpt import FxFormat
from repro.lint import (
    ERROR,
    INFO,
    LintConfig,
    Linter,
    WARNING,
    all_rules,
    lint,
)

from tests.lint.conftest import by_code, codes

F = FxFormat(8, 4)


def dangling_sfg():
    a, b, y = Sig("a", F), Sig("b", F), Sig("y", F)
    sfg = SFG("t")
    with sfg:
        y <<= a + 1
    sfg.inp(a, b).out(y)
    return sfg, b


class TestConfig:
    def test_disable_by_code_and_name(self):
        sfg, _b = dangling_sfg()
        assert "L101" in codes(Linter().lint_sfg(sfg))
        for key in ("L101", "dangling-input"):
            config = LintConfig(disabled=[key])
            assert "L101" not in codes(Linter(config=config).lint_sfg(sfg))

    def test_severity_override(self):
        sfg, _b = dangling_sfg()
        config = LintConfig(severities={"L101": ERROR})
        found = by_code(Linter(config=config).lint_sfg(sfg), "L101")
        assert found[0].severity == ERROR

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            LintConfig(severities={"L101": "fatal"})
        with pytest.raises(ValueError):
            LintConfig().override("L101", "loud")

    def test_suppress_on_object(self):
        sfg, b = dangling_sfg()
        config = LintConfig().suppress(b, "L101")
        assert "L101" not in codes(Linter(config=config).lint_sfg(sfg))

    def test_suppress_all_rules_on_object(self):
        sfg, b = dangling_sfg()
        config = LintConfig().suppress(b)
        assert "L101" not in codes(Linter(config=config).lint_sfg(sfg))

    def test_suppression_is_object_scoped(self):
        sfg, _b = dangling_sfg()
        other = Sig("other", F)
        config = LintConfig().suppress(other, "L101")
        assert "L101" in codes(Linter(config=config).lint_sfg(sfg))


class TestDriver:
    def test_explicit_rule_subset(self):
        sfg, _b = dangling_sfg()
        subset = [cls for cls in all_rules() if cls.code == "L105"]
        diagnostics = Linter(rules=subset).lint_sfg(sfg)
        assert codes(diagnostics) <= {"L105"}

    def test_diagnostics_sorted_errors_first(self):
        ghost, y, dead = Sig("ghost", F), Sig("y", F), Sig("dead", F)
        sfg = SFG("t")
        with sfg:
            y <<= ghost + 1
            dead <<= y * 2
        sfg.out(y)
        diagnostics = Linter().lint_sfg(sfg)
        ranks = [{ERROR: 0, WARNING: 1, INFO: 2}[d.severity]
                 for d in diagnostics]
        assert ranks == sorted(ranks)

    def test_lint_dispatch(self):
        sfg, _b = dangling_sfg()
        assert "L101" in codes(lint(sfg))
        with pytest.raises(TypeError):
            lint(object())

    def test_system_lints_untimed_processes(self):
        """Satellite: system lint covers untimed processes' firing
        rules, not only timed ones."""
        bad = actor("bad", lambda wrong: {}, inputs={"token": 1}, outputs={})
        system = System("s")
        system.add(bad)
        system.connect(None, bad.port("token"), name="token")
        assert "L306" in codes(Linter().lint_system(system))

    def test_no_duplicate_diagnostics_for_shared_sfg(self):
        """An SFG on several transitions is linted once."""
        clk = Clock()
        acc = Register("acc", clk, F)
        ghost = Sig("ghost", F)
        sfg = SFG("t")
        with sfg:
            acc <<= ghost + 1
        p = TimedProcess("p", clk, sfgs=[sfg, sfg])
        system = System("s")
        system.add(p)
        found = by_code(Linter().lint_system(system), "L103")
        assert len(found) == 1

