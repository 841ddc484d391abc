"""Half-line quadrature oracle anchors."""

import ast
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gsvdist import law_params, marginal_cdf, marginal_pdf, quadrature_integrate
from gsvdist.errors import ParameterError, QuadratureError


def test_analytic_antiderivative():
    assert quadrature_integrate(lambda w: (1.0 + w) ** -2, 1e-10) == pytest.approx(
        1.0, abs=1e-8
    )


def test_beta_integral():
    assert quadrature_integrate(
        lambda w: 2.0 * w / (1.0 + w) ** 3, 1e-10
    ) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("triple", [(6, 6, 8), (8, 8, 9), (7, 9, 12)])
def test_marginal_density_takes_one_gauss_panel(triple):
    # in u the density is u^a (1-u)^b times a polynomial of degree 2l - 2,
    # of degree at most 19 here, so the 20- and 40-point rules on (0, 1)
    # are both exact and the first panel converges: two array calls
    params = law_params(*triple)
    calls = []

    def pdf(w):
        calls.append(w)
        return marginal_pdf(params, w)

    assert quadrature_integrate(pdf, 1e-8) == pytest.approx(1.0, abs=1e-6)
    assert [type(w) for w in calls] == [np.ndarray, np.ndarray]
    assert [w.shape for w in calls] == [(20,), (40,)]


def test_sweep_matches_the_exact_mean():
    # E[u] under each benchmark triple's law, u = w/(1+w), is the Jacobi
    # ensemble's exact (a + l) / (a + b + 2l) (Aomoto), with a = t1 and b the
    # reciprocal law's exponent
    sweep = [(mp, p, n) for mp in range(1, 7) for p in range(1, 7) for n in range(mp, 9)]
    assert len(sweep) == 198
    for triple in sweep:
        params = law_params(*triple)
        l, a, b = params.l, params.t1, params.t1_reciprocal
        value = quadrature_integrate(lambda w: w / (1.0 + w) * marginal_pdf(params, w), 1e-8)
        exact = Fraction(a + l, a + b + 2 * l)
        assert value == pytest.approx(float(exact), rel=1e-12), triple
        density = quadrature_integrate(lambda w: marginal_pdf(params, w), 1e-8)
        assert density == pytest.approx(1.0, abs=1e-6), triple


@pytest.mark.parametrize("triple", [(8, 8, 9), (7, 9, 12), (25, 25, 30)])
def test_density_against_cdf_integrates_to_one_half(triple):
    # pdf * cdf is d(F^2 / 2)/dw: the normalization experiment's second check
    params = law_params(*triple)
    value = quadrature_integrate(
        lambda w: marginal_pdf(params, w) * marginal_cdf(params, w), 1e-8
    )
    assert value == pytest.approx(0.5, abs=1e-8)


def test_exponential_tail():
    assert quadrature_integrate(lambda w: np.exp(-w), 1e-10) == pytest.approx(
        1.0, abs=1e-8
    )


def test_divergent_integrand_raises():
    # divergent at zero: the panel at u = 0 never converges
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="did not converge"):
            quadrature_integrate(lambda w: 1.0 / w, 1e-8)


@pytest.mark.parametrize(
    "integrand, message",
    [
        # divergent at infinity: panels shrink towards u = 1 until refused,
        # before any node rounds onto it
        (np.ones_like, "too narrow"),
        (lambda w: np.where(w > 1.0, np.nan, np.exp(-w)), "non-finite"),
    ],
    ids=["divergent_at_infinity", "nan_at_some_nodes"],
)
def test_refusals_raise_quadrature_error_without_warning(integrand, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=message):
            quadrature_integrate(integrand, 1e-8)


@pytest.mark.parametrize("rel_tol", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_endpoint_singularities_are_refused_or_met(rel_tol):
    # 1/(sqrt(w) (1+w)) is 1/sqrt(u (1-u)) in u, integrable but singular at
    # both ends, where |G40 - G20| is about G40's own error; the rule must
    # not return a value outside rel_tol of the exact pi
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = quadrature_integrate(lambda w: 1.0 / np.sqrt(w) / (1.0 + w), rel_tol)
        except QuadratureError:
            return
    assert value == pytest.approx(np.pi, rel=rel_tol)


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


def test_every_imported_name_is_read():
    # no linter runs in Tier-1: an import that nothing reads is a dead line;
    # __init__.py is exempt, its imports are the public re-exports
    package = Path(__file__).resolve().parents[1] / "src" / "gsvdist"
    unread = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [alias.asname or alias.name for alias in node.names]
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        module = path.relative_to(package).as_posix()
        unread += [f"{module}: {name}" for name in bound if name not in read]
    assert unread == []


def _loads(tree):
    return [
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    ]


def test_every_private_module_name_is_read():
    # code with no caller is deleted: each module-level private name (a
    # function, class or constant) is read somewhere in the package other
    # than inside its own definition
    package = Path(__file__).resolve().parents[1] / "src" / "gsvdist"
    trees = {
        path.relative_to(package).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
    }
    reads = [name for tree in trees.values() for name in _loads(tree)]
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = _loads(node)
            unread += [
                f"{module}: {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__")
                and reads.count(name) == own.count(name)
            ]
    assert unread == []
