"""Unit tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.command == "figures"
        assert args.exhibit == ""

    def test_e2e_options(self):
        args = build_parser().parse_args(
            ["e2e", "--dataset", "s3dis", "--samples", "256", "--scale", "0.004"]
        )
        assert args.dataset == "s3dis"
        assert args.samples == 256

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["e2e", "--dataset", "nuscenes"])

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--scale", "nan"),
            ("--scale", "0"),
            ("--scale", "2"),
            ("--samples", "0"),
            ("--neighbors", "0"),
            ("--seed", "-1"),
        ],
    )
    def test_e2e_rejects_out_of_range_numbers(self, capsys, flag, value):
        _assert_argparse_error(capsys, ["e2e", flag, value], flag)

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--points", "0"),
            ("--samples", "0"),
            ("--samples", "-3"),
            ("--seed", "-1"),
        ],
    )
    def test_samplers_rejects_out_of_range_numbers(self, capsys, flag, value):
        _assert_argparse_error(capsys, ["samplers", flag, value], flag)


def _assert_argparse_error(capsys, argv, flag):
    """``argv`` exits 2 with one argparse ``error:`` line naming ``flag``."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]
    assert "Traceback" not in err


class TestExecution:
    def test_figures_single_exhibit(self, capsys):
        assert main(["figures", "--exhibit", "table"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "ModelNet40" in out

    def test_figures_no_match(self, capsys):
        assert main(["figures", "--exhibit", "figure99"]) == 1
        assert "no exhibit matches" in capsys.readouterr().out

    def test_e2e_small_run(self, capsys):
        code = main(
            [
                "e2e",
                "--dataset",
                "shapenet",
                "--scale",
                "0.05",
                "--samples",
                "128",
                "--neighbors",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ShapeNet" in out
        assert "total" in out

    def test_samplers_small_run(self, capsys):
        assert main(["samplers", "--points", "2000", "--samples", "128"]) == 0
        out = capsys.readouterr().out
        assert "fps" in out and "ois" in out and "coverage radius" in out
