"""Runtime validation raises typed errors that survive ``python -O``."""

import ast
from pathlib import Path

import pytest

import surfauto as sa
from surfauto import dynamics
from surfauto.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "surfauto"
PRESET = Path(__file__).resolve().parents[1] / "demos" / "figure1.json"


def test_package_has_no_assert_validation():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert found == []


def test_bad_fixed_point_root_is_a_typed_failure(monkeypatch, capsys):
    real_roots = dynamics.aberth_roots

    def one_bad_root(coeffs):
        roots = real_roots(coeffs).copy()
        roots[0] += 1e-3
        return roots

    monkeypatch.setattr(dynamics, "aberth_roots", one_bad_root)
    with pytest.raises(sa.NumericCheckError, match="fixed-point residual"):
        sa.fixed_points(sa.figure1_params())
    assert main(["fixed-points", "--params", str(PRESET)]) == 1
    assert "fixed-point residual" in capsys.readouterr().err
