"""The benchmark's tracer against the public names of `pencils`."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pencils

ROOT = Path(__file__).resolve().parents[1]

# The public surface, in the order that the tracer and the CI listing read.
PUBLIC = [
    "AlgebraError", "BinaryForm", "CConstants", "DegeneratePencilError", "DegreeMismatchError",
    "FormulaViolationError", "LinearSymbol", "MultiForm", "NineJArray", "NotDivisibleError",
    "PAIRS", "ParseError", "Pencil", "PositivityCertificate", "SurdSum", "SyzygyTable",
    "beta_chain", "c_aggregate", "c_constants", "combinant_9j_array", "combinant_sequence",
    "evaluate_syzygy", "exact_divide", "form_from_dict", "form_to_dict", "format_form", "gamma",
    "h_factor", "index_pairs", "membership_defect", "mu_factor", "ninej_magnetic_sum", "omega",
    "omega_chain", "parse_form", "positivity_certificate", "random_form", "random_pencil",
    "recover_combinant", "syzygy_space_dim", "syzygy_table", "table_from_dict", "table_to_dict",
    "theta", "transvectant", "verify_theta", "wigner3j", "wigner6j", "wigner9j", "wronskian",
    "zeta_image",
]

# Import the tracer and install it; then report the public functions, how
# many of them it rebound, and the per-layer metrics none of whose spans
# names a rebound function.
INSTALL = """
import inspect, json, sys
import pencils
import spans
spans.Tracer().install()
public = [getattr(pencils, name) for name in pencils.__all__]
functions = [obj for obj in public if inspect.isfunction(obj)]
pencil_init = pencils.Pencil.__init__
from_twice = pencils.NineJArray.__dict__["from_twice"].__func__
traced = {
    f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
    for module in [m for name, m in sys.modules.items() if name.startswith("pencils.")]
    for fn in [*vars(module).values(), pencil_init, from_twice]
    if hasattr(fn, "__wrapped__")
}
print(json.dumps({
    "functions": len(functions),
    "wrapped": sum(hasattr(obj, "__wrapped__") for obj in functions),
    "dead": sorted(layer for layer, names in spans.LAYERS.items() if traced.isdisjoint(names)),
}))
"""


@pytest.fixture(scope="module")
def installed():
    # A fresh interpreter, as the benchmark's worker imports the tracer.
    path = os.pathsep.join(str(ROOT / part) for part in ("src", "benchmark"))
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_install_rebinds_every_public_function(installed):
    # `benchmark/spans.py` reads public signatures when it is imported and
    # rebinds every public function on install, so a public name it needs
    # that goes missing fails here.
    assert installed["functions"] > 0
    assert installed["wrapped"] == installed["functions"]


def test_every_layer_names_a_traced_function(installed):
    # A per-layer metric none of whose spans is traced reads 0.
    assert installed["dead"] == []


def test_public_surface_is_pinned():
    assert len(PUBLIC) == 51
    assert pencils.__all__ == PUBLIC
