"""Tests for the python -m repro command-line interface."""

import pytest

from repro.__main__ import main


def test_cli_requires_a_command(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_cli_unknown_command(capsys):
    with pytest.raises(SystemExit):
        main(["teleport"])


def test_cli_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Lane Detection" in out and "Haar" in out
    # The committed Table I CNN row (benchmarks/results/table1_algorithms.json).
    cnn_line = next(line for line in out.splitlines() if "(CNN)" in line)
    assert "7938.56" in cnn_line


def test_cli_fig3(capsys):
    assert main(["fig3"]) == 0
    out = capsys.readouterr().out
    assert "Tesla V100" in out and "Myriad" in out


def test_cli_fig2_short(capsys):
    assert main(["fig2"]) == 0
    out = capsys.readouterr().out
    assert "70MPH 1080P" in out


def test_cli_drive(capsys):
    assert main(["drive", "--seconds", "30"]) == 0
    out = capsys.readouterr().out
    assert "adas-perception" in out and "amber-search" in out
