"""Tests for ``simlint`` — each rule fires on a minimal bad example.

The rules are driven through :func:`repro.analysis.simlint.lint_sources`
with *virtual* paths, so the domain routing (which sub-packages a rule
applies to) is exercised without touching the real tree.  The real tree
is covered by ``tests/test_simlint_clean.py``.
"""

import json
import textwrap

import pytest

from repro.analysis.rules import all_rules
from repro.analysis.simlint import (
    LintConfig,
    lint_sources,
    load_config,
    main,
    run_simlint,
)

CORE = "src/repro/sim/example.py"
SCHED = "src/repro/schedulers/example.py"
ENGINE = "src/repro/engine/example.py"


def lint(source, path=CORE, config=None, extra=()):
    items = [(path, textwrap.dedent(source))]
    items += [(p, textwrap.dedent(s)) for p, s in extra]
    return lint_sources(items, config)


def codes(findings):
    return [finding.code for finding in findings]


class TestRegistry:
    def test_stable_codes(self):
        assert [rule.code for rule in all_rules()] == [
            "SIM001", "SIM002", "SIM003", "SIM004", "SIM005", "SIM006",
            "SIM007",
            "SIM101", "SIM102", "SIM103", "SIM104", "SIM105", "SIM106",
            "SIM107", "SIM108", "SIM109",
        ]

    def test_every_rule_has_fixit_and_summary(self):
        for rule in all_rules():
            assert rule.summary and rule.fixit


class TestWallClock:
    def test_time_time_fires_in_core(self):
        findings = lint("import time\nstart = time.time()\n")
        assert codes(findings) == ["SIM001"]
        assert findings[0].line == 2

    def test_perf_counter_and_from_import(self):
        assert codes(lint("import time\nt = time.perf_counter()\n")) == [
            "SIM001"
        ]
        assert codes(
            lint("from time import monotonic\nt = monotonic()\n")
        ) == ["SIM001"]

    def test_datetime_now_fires(self):
        source = "import datetime\nstamp = datetime.datetime.now()\n"
        assert codes(lint(source)) == ["SIM001"]

    def test_engine_layer_is_exempt(self):
        assert lint("import time\nstart = time.time()\n", path=ENGINE) == []


class TestUnseededRandom:
    def test_global_random_fires(self):
        assert codes(lint("import random\nx = random.random()\n", SCHED)) == [
            "SIM002",  # the module-level call
            "SIM002",  # `import random` itself inside the core
        ]

    def test_bare_random_constructor_fires(self):
        findings = lint(
            "import random\nrng = random.Random()\n",
            path="src/repro/workloads/example.py",
        )
        assert codes(findings) == ["SIM002"]

    def test_seeded_random_is_clean(self):
        findings = lint(
            "import random\nrng = random.Random(1234)\nx = rng.random()\n",
            path="src/repro/workloads/example.py",
        )
        assert findings == []


class TestSetIteration:
    def test_for_over_set_literal(self):
        source = """
        def pick():
            for thread in {3, 1, 2}:
                return thread
        """
        findings = lint(source, SCHED)
        assert codes(findings) == ["SIM003"]

    def test_for_over_annotated_set_variable(self):
        source = """
        def pick(threads):
            ready: set[int] = set(threads)
            for thread in ready:
                print(thread)
        """
        assert codes(lint(source, SCHED)) == ["SIM003"]

    def test_sorted_iteration_is_the_fix(self):
        source = """
        def pick(threads):
            ready: set[int] = set(threads)
            for thread in sorted(ready):
                print(thread)
        """
        assert lint(source, SCHED) == []

    def test_order_insensitive_reductions_are_clean(self):
        source = """
        def pick(threads):
            ready: set[int] = set(threads)
            return len(ready), sum(ready), max(ready)
        """
        assert lint(source, SCHED) == []

    def test_dict_of_set_subscript_fires_cross_file(self):
        # The dict-of-set annotation lives in another file from the
        # code that iterates one of its values.
        decl = """
        class ScanBox:
            by_bank: dict[int, set[int]]
        """
        use = """
        def update(scan, bank):
            waiters = scan.by_bank.get(bank)
            for thread in waiters:
                print(thread)
        """
        findings = lint(
            use, path="src/repro/core/example.py",
            extra=[("src/repro/controller/decl.py", decl)],
        )
        assert codes(findings) == ["SIM003"]

    def test_next_iter_and_list_materialization_fire(self):
        source = """
        def pick(ready: set[int]):
            first = next(iter(ready))
            ordered = list(ready)
            return first, ordered
        """
        assert codes(lint(source, SCHED)) == ["SIM003", "SIM003"]

    def test_membership_test_is_clean(self):
        source = """
        def pick(ready: set[int], thread):
            return thread in ready
        """
        assert lint(source, SCHED) == []

    def test_workloads_domain_is_exempt(self):
        source = """
        def pick():
            for thread in {3, 1, 2}:
                return thread
        """
        assert lint(source, path="src/repro/workloads/example.py") == []


class TestIdKeyed:
    def test_id_call_fires(self):
        source = """
        marked = set()
        def mark(request):
            marked.add(id(request))
        """
        findings = lint(source, SCHED)
        assert "SIM004" in codes(findings)

    def test_seq_keying_is_clean(self):
        source = """
        marked = set()
        def mark(request):
            marked.add(request.seq)
        """
        assert "SIM004" not in codes(lint(source, SCHED))


class TestFloatEquality:
    def test_float_literal_equality_fires(self):
        assert codes(lint("def f(s):\n    return s == 1.5\n")) == ["SIM005"]
        assert codes(lint("def f(s):\n    return s != 0.5\n")) == ["SIM005"]

    def test_ordering_comparisons_are_clean(self):
        assert lint("def f(s):\n    return s < 1.5 or s >= 0.5\n") == []

    def test_integer_equality_is_clean(self):
        assert lint("def f(s):\n    return s == 1\n") == []


class TestMutableDefault:
    def test_list_default_fires_everywhere(self):
        source = "def f(x=[]):\n    return x\n"
        assert codes(lint(source, path="src/repro/experiments/ex.py")) == [
            "SIM006"
        ]

    def test_call_defaults_fire(self):
        assert codes(lint("def f(x=set(), y=dict()):\n    return x\n")) == [
            "SIM006", "SIM006",
        ]

    def test_none_default_is_clean(self):
        assert lint("def f(x=None):\n    return x\n") == []


class TestSilentExcept:
    def test_broad_pass_fires_everywhere(self):
        source = """
        try:
            risky()
        except Exception:
            pass
        """
        assert codes(lint(source, path=ENGINE)) == ["SIM007"]
        assert codes(lint(source, path="src/repro/service/ex.py")) == [
            "SIM007"
        ]

    def test_bare_except_and_tuple_fire(self):
        assert codes(lint("try:\n    f()\nexcept:\n    pass\n")) == ["SIM007"]
        assert codes(
            lint("try:\n    f()\nexcept (OSError, BaseException):\n    pass\n")
        ) == ["SIM007"]

    def test_narrow_or_handled_is_clean(self):
        assert lint("try:\n    f()\nexcept OSError:\n    pass\n") == []
        assert (
            lint("try:\n    f()\nexcept Exception as exc:\n    log(exc)\n")
            == []
        )

    def test_inline_suppression(self):
        source = """
        try:
            send()
        except Exception:  # simlint: disable=SIM007
            pass
        """
        assert lint(source, path=ENGINE) == []


class TestSuppression:
    SOURCE = """
    def pick():
        for thread in {3, 1, 2}:  # simlint: disable=SIM003
            return thread
    """

    def test_inline_code_suppression(self):
        assert lint(self.SOURCE, SCHED) == []

    def test_inline_blanket_suppression(self):
        source = """
        def pick():
            for thread in {3, 1, 2}:  # simlint: disable
                return thread
        """
        assert lint(source, SCHED) == []

    def test_other_codes_not_suppressed(self):
        source = """
        def pick(s):
            for thread in {3, 1, 2}:  # simlint: disable=SIM005
                return thread
        """
        assert codes(lint(source, SCHED)) == ["SIM003"]


class TestConfig:
    BAD = """
    def pick(s):
        for thread in {3, 1, 2}:
            return s == 1.5
    """

    def test_disable_removes_a_rule(self):
        config = LintConfig(disable=frozenset({"SIM003"}))
        assert codes(lint(self.BAD, SCHED, config)) == ["SIM005"]

    def test_enable_runs_only_listed_rules(self):
        config = LintConfig(enable=frozenset({"SIM005"}))
        assert codes(lint(self.BAD, SCHED, config)) == ["SIM005"]

    def test_load_config_reads_simlint_block(self, tmp_path):
        ini = tmp_path / "setup.cfg"
        ini.write_text("[simlint]\ndisable = SIM003, SIM005\n")
        config = load_config(str(ini))
        assert config.disable == frozenset({"SIM003", "SIM005"})
        assert config.enable is None

    def test_load_config_without_block_enables_everything(self, tmp_path):
        ini = tmp_path / "setup.cfg"
        ini.write_text("[metadata]\nname = x\n")
        config = load_config(str(ini))
        assert config.enable is None and config.disable == frozenset()


class TestDriver:
    def test_run_simlint_walks_directories(self, tmp_path):
        package = tmp_path / "src" / "repro" / "schedulers"
        package.mkdir(parents=True)
        (package / "bad.py").write_text(
            "def pick():\n    for t in {1, 2}:\n        return t\n"
        )
        findings = run_simlint([str(tmp_path)])
        assert codes(findings) == ["SIM003"]
        assert findings[0].path.endswith("bad.py")

    def test_syntax_error_is_reported_not_crashed(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings = run_simlint([str(bad)])
        assert codes(findings) == ["SIM000"]

    def test_main_exit_codes(self, tmp_path, capsys):
        package = tmp_path / "src" / "repro" / "sim"
        package.mkdir(parents=True)
        clean = package / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out
        bad = package / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "SIM001" in out and "1 finding(s)" in out

    def test_main_select_and_ignore(self, tmp_path, capsys):
        package = tmp_path / "src" / "repro" / "sim"
        package.mkdir(parents=True)
        bad = package / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main([str(bad), "--select", "SIM005"]) == 0
        capsys.readouterr()
        assert main([str(bad), "--ignore", "SIM001"]) == 0

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_simlint(["definitely/not/a/path"])

    @pytest.mark.parametrize("flag", ["--select", "--ignore"])
    def test_unknown_flag_code_exits_2(self, flag, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean), flag, "SIM001,sim00l,SIM999"]) == 2
        captured = capsys.readouterr()
        assert f"in {flag}: SIM00L, SIM999" in captured.err
        assert "clean" not in captured.out

    def test_bad_config_block_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "setup.cfg"
        ini.write_text("[simlint]\ndisable = SIM003, SIM999\n")
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean), "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert "[simlint] block" in err and "SIM999" in err
        with pytest.raises(ValueError, match="SIM999"):
            load_config(str(ini))
        ini.write_text("disable = SIM003\n")  # no section header
        assert main([str(clean), "--config", str(ini)]) == 2

    def test_missing_config_file_or_path_exits_2(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        missing = tmp_path / "nonexistent.cfg"
        assert main([str(clean), "--config", str(missing)]) == 2
        assert "no such config file" in capsys.readouterr().err
        assert main([str(missing.with_suffix(".py"))]) == 2
        assert "no such file or directory" in capsys.readouterr().err


class TestCliIntegration:
    def test_stfm_sim_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        package = tmp_path / "src" / "repro" / "controller"
        package.mkdir(parents=True)
        bad = package / "bad.py"
        bad.write_text("marked = id(object())\n")
        assert cli_main(["lint", str(bad)]) == 1
        assert "SIM004" in capsys.readouterr().out

    def test_stfm_sim_lint_list_rules(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["lint", "--list-rules"]) == 0
        assert "SIM003" in capsys.readouterr().out

    def test_stfm_sim_lint_json_with_stats(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        package = tmp_path / "src" / "repro" / "controller"
        package.mkdir(parents=True)
        bad = package / "bad.py"
        bad.write_text("marked = id(object())\n")
        argv = ["lint", "--format", "json", "--stats", str(bad)]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["count"] == 1
        assert payload["findings"][0]["code"] == "SIM004"
        assert "1 file(s), 1 parsed" in captured.err

    def test_stfm_sim_lint_unknown_select_exits_2(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["lint", "--select", "SIM999"]) == 2
        assert "SIM999" in capsys.readouterr().err
