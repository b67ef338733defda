"""Tests for the ``python -m repro`` CLI (list / spec / run)."""

import json

import pytest

from repro.cli import main
from repro.sweep import SweepTable


def test_list_prints_registered_studies(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table1_training_validation" in out
    assert "[Fig. 5]" in out


def test_list_registries(capsys):
    assert main(["list", "--models", "--systems", "--extractors"]) == 0
    out = capsys.readouterr().out
    assert "Llama2-13B" in out
    assert "A100" in out
    assert "serving_frontier" in out


def test_spec_prints_json(capsys):
    assert main(["spec", "table4_gemm_bottlenecks"]) == 0
    spec = json.loads(capsys.readouterr().out)
    assert spec["kind"] == "prefill_bottlenecks"
    assert spec["axes"]["gpu"] == ["A100", "H100"]


def test_spec_of_code_only_study_fails_cleanly(capsys):
    assert main(["spec", "fig9_memory_technology_scaling"]) == 1
    assert "code-only" in capsys.readouterr().err


def test_run_registered_study_with_params_and_exports(tmp_path, capsys):
    csv_path = tmp_path / "table4.csv"
    json_path = tmp_path / "table4.json"
    code = main([
        "run", "table4_gemm_bottlenecks",
        "-p", "gpus=('A100',)",
        "--csv", str(csv_path),
        "--json", str(json_path),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "qkv_projection" in captured.out
    assert "rows in" in captured.err
    assert csv_path.read_text().startswith("gpu,gemm,m,n,k,batch,time_us,bound")
    table = SweepTable.from_json(json_path.read_text())
    assert set(table["gpu"].tolist()) == {"A100"}


def test_run_from_spec_file_end_to_end(tmp_path, capsys):
    """The acceptance path: spec a paper study to JSON, run it from the shell."""
    spec_path = tmp_path / "study.json"
    csv_path = tmp_path / "out.csv"
    assert main(["spec", "fig8_inference_boundedness", "-p", "gpus=('A100',)",
                 "-p", "batch_sizes=(1,)", "-o", str(spec_path)]) == 0
    assert main(["run", str(spec_path), "--csv", str(csv_path), "--quiet"]) == 0
    header = csv_path.read_text().splitlines()[0]
    assert header.split(",")[:2] == ["gpu", "batch_size"]
    assert "weights_gb" in header  # the derive chain ran from the spec


def test_run_spec_file_rejects_params(tmp_path, capsys):
    spec_path = tmp_path / "study.json"
    assert main(["spec", "table4_gemm_bottlenecks", "-o", str(spec_path)]) == 0
    assert main(["run", str(spec_path), "-p", "gpus=('A100',)"]) == 1
    assert "registered studies" in capsys.readouterr().err


def test_run_unknown_study_is_an_error(capsys):
    assert main(["run", "no_such_study"]) == 1
    assert "unknown study" in capsys.readouterr().err


def test_run_missing_spec_file_is_a_clean_error(capsys):
    assert main(["run", "does_not_exist.json"]) == 1
    assert "cannot read study spec" in capsys.readouterr().err


def test_run_invalid_spec_file_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 1
    assert "not a valid JSON study spec" in capsys.readouterr().err


def test_bad_param_syntax_is_an_error(capsys):
    assert main(["run", "table4_gemm_bottlenecks", "-p", "gpus"]) == 1
    assert "NAME=VALUE" in capsys.readouterr().err


def test_mistyped_param_name_is_a_clean_error(capsys):
    assert main(["run", "table4_gemm_bottlenecks", "-p", "batchsize=4"]) == 1
    err = capsys.readouterr().err
    assert "bad -p parameter" in err and "batchsize" in err


def test_scalar_param_for_sequence_axis_sweeps_one_value(tmp_path, capsys):
    csv_path = tmp_path / "one_gpu.csv"
    assert main(["run", "table4_gemm_bottlenecks", "-p", "gpus=A100",
                 "--csv", str(csv_path), "--quiet"]) == 0
    lines = csv_path.read_text().splitlines()
    assert all(line.startswith("A100,") for line in lines[1:])


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


@pytest.mark.parametrize("command", [["run", "table4_gemm_bottlenecks"], ["serve"]])
@pytest.mark.parametrize("flag", [["--executor", "serial"], ["--max-workers", "2"]])
def test_executor_flags_are_gone(capsys, command, flag):
    with pytest.raises(SystemExit):
        main([*command, *flag])
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# repro cache
# ---------------------------------------------------------------------------


def test_cache_stats_on_empty_root(tmp_path, capsys):
    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    assert "empty" in capsys.readouterr().out


def test_cache_stats_clear_prune_roundtrip(tmp_path, capsys):
    from repro.sweep import DiskResultStore

    store = DiskResultStore(root=tmp_path)
    store.put("aa11", value=1)
    store.put("bb22", value=2)
    DiskResultStore(root=tmp_path, fingerprint="stale").put("cc33", value=3)

    assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2 entries" in out and "(current)" in out and "stale" in out

    assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 0
    assert "stale" in capsys.readouterr().out
    assert store.fingerprints() == [store.fingerprint]

    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    assert "removed 2 entries" in capsys.readouterr().out
    assert store.count() == 0

    assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 0
    assert "nothing to prune" in capsys.readouterr().out


def test_cache_prune_all_drops_the_current_fingerprint(tmp_path, capsys):
    from repro.sweep import DiskResultStore

    store = DiskResultStore(root=tmp_path)
    store.put("aa11", value=1)
    assert main(["cache", "prune", "--all", "--cache-dir", str(tmp_path)]) == 0
    assert store.fingerprint in capsys.readouterr().out
    assert store.fingerprints() == []


def test_cache_without_verb_prints_usage(capsys):
    assert main(["cache"]) == 2
    assert "stats,clear,prune" in capsys.readouterr().err


def test_run_stats_line_reports_stage_timings(tmp_path, capsys):
    code = main([
        "run", "table4_gemm_bottlenecks",
        "-p", "gpus=('A100',)",
        "--quiet", "--cache-dir", str(tmp_path),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "key-hash" in err and "plan" in err and "price" in err and "scatter" in err


# ---------------------------------------------------------------------------
# Interrupted runs: exit 130, flush what completed, resume the remainder.
# ---------------------------------------------------------------------------


def test_keyboard_interrupt_exits_130_and_resume_prices_only_remainder(
    tmp_path, monkeypatch, capsys
):
    from repro import cli as cli_module

    args = [
        "run", "fleet_resilience",
        "-p", "num_requests=16",
        "-p", "mtbf_values=(0.0, 8.0)",
        "-p", "routers=('round_robin',)",
        "-p", "retry_attempts=(1, 3)",
        "--cache-dir", str(tmp_path),
    ]

    original = cli_module._Progress.__call__
    seen = []

    def interrupting(self, result):
        original(self, result)
        seen.append(result)
        if len(seen) == 2:
            raise KeyboardInterrupt

    monkeypatch.setattr(cli_module._Progress, "__call__", interrupting)
    assert main(args) == 130
    err = capsys.readouterr().err
    assert "interrupted" in err
    assert "2 evaluations" in err
    assert "re-run" in err

    # The two completed scenarios were flushed before the interrupt; the
    # follow-up run prices only the other two.
    monkeypatch.setattr(cli_module._Progress, "__call__", original)
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "4 rows" in err
    assert "2 evaluations" in err
    assert "2 disk hits" in err


def test_keyboard_interrupt_without_disk_cache_omits_resume_hint(monkeypatch, capsys):
    from repro import cli as cli_module

    def interrupting(self, result):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module._Progress, "__call__", interrupting)
    assert main([
        "run", "fleet_resilience",
        "-p", "num_requests=16",
        "-p", "mtbf_values=(8.0,)",
        "-p", "routers=('round_robin',)",
        "-p", "retry_attempts=(1,)",
        "--no-disk-cache",
    ]) == 130
    err = capsys.readouterr().err
    assert "interrupted" in err
    assert "re-run" not in err


def test_non_tty_stderr_suppresses_live_progress(capsys):
    # pytest's captured stderr is not a TTY, so the per-scenario `\r` line
    # must not render -- only the closing stats line (server logs / CI).
    assert main(["run", "table4_gemm_bottlenecks", "-p", "gpus=('A100',)", "--no-disk-cache"]) == 0
    err = capsys.readouterr().err
    assert "\r" not in err
    assert "rows in" in err


def test_tty_stderr_renders_live_progress(monkeypatch, capsys):
    import repro.cli as cli

    monkeypatch.setattr(
        cli._Progress, "__init__",
        lambda self, name, total: (
            setattr(self, "name", name), setattr(self, "total", total),
            setattr(self, "done", 0), setattr(self, "live", True), None)[-1],
    )
    assert main(["run", "table4_gemm_bottlenecks", "-p", "gpus=('A100',)", "--no-disk-cache"]) == 0
    err = capsys.readouterr().err
    assert "\r" in err


def test_serve_parser_defaults():
    from repro.cli import _build_parser

    args = _build_parser().parse_args(["serve"])
    assert args.host == "127.0.0.1"
    assert args.port == 8642
    assert args.workers == 2
    assert args.handler.__name__ == "_cmd_serve"
