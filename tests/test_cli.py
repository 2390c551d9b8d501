"""Tests for the ``pasta profile`` subcommand of the umbrella CLI."""

from __future__ import annotations

import json

import pytest

from repro.commands import build_parser, main


class TestProfile:
    def test_list_tools(self, capsys):
        assert main(["profile", "--list-tools"]) == 0
        out = capsys.readouterr().out
        assert "kernel_frequency" in out
        assert "memory_characteristics" in out

    def test_list_models_and_devices(self, capsys):
        assert main(["profile", "--list-models"]) == 0
        assert "alexnet" in capsys.readouterr().out
        assert main(["profile", "--list-devices"]) == 0
        assert "mi300x" in capsys.readouterr().out
        assert main(["profile", "--list-backends"]) == 0
        assert "nvbit" in capsys.readouterr().out

    def test_requires_subcommand_model_and_tool(self):
        with pytest.raises(SystemExit):
            main([])
        with pytest.raises(SystemExit):
            main(["profile"])
        with pytest.raises(SystemExit):
            main(["profile", "resnet18"])

    def test_basic_profiling_run_text_output(self, capsys):
        code = main(["profile", "alexnet", "--tool", "kernel_frequency",
                     "--device", "rtx3060", "--batch-size", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[kernel_frequency]" in out
        assert "total_launches" in out
        assert "[run]" in out

    def test_nested_report_values_render_structured(self, capsys):
        # The old flat renderer printed nested rows as one opaque repr line;
        # the umbrella CLI indents mappings and renders list rows as
        # bullet items with their fields broken out.
        code = main(["profile", "alexnet", "--tool", "kernel_frequency",
                     "--batch-size", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "top_kernels:" in out
        assert "- kernel: " in out           # list-of-rows bullet
        assert "invocations: " in out        # row field on its own line
        assert "KernelFrequencyEntry(" not in out   # no dataclass reprs
        assert "[{" not in out                      # no flattened dict lists

    def test_json_output_with_multiple_tools(self, capsys):
        code = main(["profile", "resnet18", "-t", "kernel_frequency",
                     "-t", "memory_characteristics", "--batch-size", "2", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kernel_frequency"]["total_launches"] > 10
        assert data["memory_characteristics"]["working_set_bytes"] > 0
        assert data["run"]["model"] == "resnet18"
        assert "overhead" in data

    def test_grid_window_limits_analysis(self, capsys):
        code = main(["profile", "alexnet", "-t", "kernel_frequency",
                     "--batch-size", "2",
                     "--start-grid-id", "0", "--end-grid-id", "4", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kernel_frequency"]["total_launches"] == 5

    def test_train_mode_and_backend_selection(self, capsys):
        code = main(["profile", "resnet18", "-t", "memory_timeline",
                     "--mode", "train", "--backend", "nvbit",
                     "--batch-size", "2", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["overhead"]["backend"] == "nvbit"
        assert data["run"]["mode"] == "train"

    def test_analysis_model_flag(self, capsys):
        code = main(["profile", "alexnet", "-t", "kernel_frequency",
                     "--batch-size", "2", "--analysis-model", "cpu_side", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["overhead"]["analysis_model"] == "cpu_side"

    def test_record_flag_writes_replayable_trace(self, tmp_path, capsys):
        trace = tmp_path / "run.pastatrace"
        code = main(["profile", "alexnet", "-t", "kernel_frequency",
                     "--batch-size", "2", "--record", str(trace), "--json"])
        assert code == 0
        assert trace.exists()
        out = capsys.readouterr().out
        live = json.loads(out[out.index("{"):])
        assert live["trace"]["path"] == str(trace)
        assert main(["trace", "replay", str(trace),
                     "-t", "kernel_frequency", "--json"]) == 0
        out = capsys.readouterr().out
        replayed = json.loads(out[out.index("{"):])
        assert replayed["kernel_frequency"] == live["kernel_frequency"]

    def test_unknown_tool_is_a_clean_error(self, capsys):
        code = main(["profile", "alexnet", "-t", "not_a_tool", "--batch-size", "2"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_device_is_a_clean_error(self, capsys):
        code = main(["profile", "alexnet", "-t", "kernel_frequency",
                     "--device", "h100"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_model_is_a_clean_error(self, capsys):
        code = main(["profile", "vgg16", "-t", "kernel_frequency"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "vgg16" in err

    def test_amd_device_uses_rocprofiler_by_default(self, capsys):
        code = main(["profile", "bert", "-t", "kernel_frequency",
                     "--device", "mi300x", "--batch-size", "2", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["overhead"]["backend"] == "rocprofiler"

    def test_umbrella_parser_lists_all_subcommands(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--help"])
        out = capsys.readouterr().out
        for name in ("profile", "campaign", "trace"):
            assert name in out
