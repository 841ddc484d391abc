"""Half-line quadrature oracle anchors."""

import ast
from pathlib import Path

import numpy as np
import pytest

from gsvdist import law_params, marginal_pdf, quadrature_integrate
from gsvdist.errors import ParameterError, QuadratureError


def test_analytic_antiderivative():
    assert quadrature_integrate(lambda w: (1.0 + w) ** -2, 1e-10) == pytest.approx(
        1.0, abs=1e-8
    )


def test_beta_integral():
    assert quadrature_integrate(
        lambda w: 2.0 * w / (1.0 + w) ** 3, 1e-10
    ) == pytest.approx(1.0, abs=1e-8)


def test_marginal_density_normalizes():
    params = law_params(2, 2, 3)
    integral = quadrature_integrate(lambda w: marginal_pdf(params, w), 1e-8)
    assert integral == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("triple", [(6, 6, 8), (8, 8, 9), (7, 9, 12)])
def test_marginal_density_takes_one_kronrod_rule(triple):
    # the compactified rule converges on its first 21-point Gauss-Kronrod
    # panel; QUADPACK's half-line rule needs 105 calls at (8, 8, 9) and 225
    # at (7, 9, 12)
    params = law_params(*triple)
    calls = []

    def pdf(w):
        calls.append(w)
        return marginal_pdf(params, w)

    assert quadrature_integrate(pdf, 1e-8) == pytest.approx(1.0, abs=1e-6)
    assert len(calls) == 21


def test_exponential_tail():
    assert quadrature_integrate(lambda w: np.exp(-w), 1e-10) == pytest.approx(
        1.0, abs=1e-8
    )


def test_divergent_integrand_raises():
    with pytest.raises(QuadratureError):
        quadrature_integrate(lambda w: 1.0 / w, 1e-8)


def test_bad_tolerance_rejected():
    # a ParameterError, which is also a ValueError
    with pytest.raises(ParameterError):
        quadrature_integrate(lambda w: np.exp(-w), 0.0)


def test_only_the_quadrature_oracle_imports_scipy():
    # scipy is a dependency of the normalization oracle alone
    package = Path(__file__).resolve().parents[1] / "src" / "gsvdist"
    importers = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(mod.split(".")[0] == "scipy" for mod in modules):
                importers.add(path.relative_to(package).as_posix())
    assert importers == {"quadrature.py"}
