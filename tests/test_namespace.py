import inspect
import re
from pathlib import Path

import involstab

# The public names of the package, as README's "Python API" lists them. A
# name removed or added here is a deliberate change of the API.
PUBLIC_NAMES = [
    "AlgebraKind", "AlgebraSpec", "AlternativeOutcome", "ApproxMap", "BoundReport",
    "Branch", "ConfigError", "ControlFunction", "ControlKind", "CstarReport",
    "DefectReport", "DegenerateDirection", "Element", "Exhausted", "FunctionSpaceMetric",
    "GeneralizedMetricSpace", "INF", "InvolStabError", "Involution", "InvolutionKind",
    "IterateOverflow", "KindSpecMismatch", "LambdaSampler", "LawReport", "NO_PERTURBATION",
    "NoContraction", "NonCauchy", "NotContractive", "OutOfRange", "PerturbationKind",
    "PerturbationSpec", "Regime", "SCALAR", "ScalingDirection", "SpecMismatch",
    "StabilizationFailure", "StabilizationTrace", "StabilizedMap", "UniquenessReport",
    "adjoint", "algebra", "aposteriori_bound", "cli", "conjugation", "corollary_constant",
    "element", "errors", "eval_f_rows", "fixedpoint", "function_space_distance",
    "gmetric_check", "iterate_alternative", "maps", "matrix_spec", "pointwise_spec",
    "power_product", "power_sum", "ray_probes", "sample_element", "sample_lambdas",
    "scaling_operator", "scan_hypotheses", "select_direction", "stabilize_points",
    "stabilizer", "twisted_adjoint", "verifier", "verify_bound", "verify_cstar",
    "verify_involution_laws", "verify_uniqueness",
]


def test_public_names_pinned():
    assert sorted(name for name in vars(involstab) if not name.startswith("_")) == PUBLIC_NAMES


def test_readme_lists_the_public_names():
    # README's public-names bullets, the paragraph after the one that
    # introduces them, name each of PUBLIC_NAMES once.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    bullets = readme.split("The package exports these public names", 1)[1].split("\n\n")[1]
    assert sorted(re.findall(r"`(\w+)`", bullets)) == PUBLIC_NAMES


# The parameters of the orbit API: the depth comes from the control's
# tail, so the orbit takes phi and no depth knob, and a stage reads phi from
# the StabilizedMap whose depths it set. A knob added back here is a
# deliberate change of the API, as a public name is.
def test_orbit_parameters_pinned():
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(involstab.stabilize_points) == ["f", "direction", "phi", "X"]
    assert names(involstab.StabilizedMap.__init__) == ["self", "f", "direction", "phi"]
    assert names(involstab.StabilizedMap.limits) == ["self", "X"]
    assert names(involstab.eval_f_rows) == ["f", "X"]
    assert names(involstab.scan_hypotheses) == ["I", "lambdas", "P"]
    # The bound reads f(x) and its control from I's ladders.
    assert names(involstab.verify_bound) == ["I", "P"]
    # The C* tolerance is verifier.CSTAR_TOL, no knob.
    assert names(involstab.verify_cstar) == ["I", "P"]
