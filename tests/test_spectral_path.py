"""Every eigendecomposition in the package runs one kernel.

`matrix_core.batched_eigh` is the one eigensolver of Hermitian matrix
stacks; the clamp and the powers that use it live next to it.  The source
text of `src/mwlp/*.py` is read, the way tests/test_tracer_contract.py reads
the tracer, and every `np.linalg` call is located by the function that makes
it.  The only other eigenvalue calls are the largest eigenvalue of the Gram
stacks in `pairwise_op_norm` (every pair for d >= 4; for d = 3 only the pairs
whose two largest eigenvalues nearly coincide, the rest take a closed form),
the rank check of the John fit's sample and the independent oracle of the
spectral-identities suite.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mwlp"

EIGEN_SITES = Counter({
    ("matrix_core", "batched_eigh", "eigh"): 1,
    ("matrix_core", "pairwise_op_norm", "eigvalsh"): 1,
    ("spaces", "john_ellipsoid", "eigvalsh"): 1,
    ("verify", "suite_spectral_identities", "eigvalsh"): 1,
})
MATRIX_CORE_LINALG = {"batched_eigh", "batched_spectral_norm", "pairwise_op_norm"}


def _linalg_calls():
    """(module, top-level function or Class.method, linalg name) per `*.linalg.*` use."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owners = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                owners += [(f"{node.name}.{item.name}", item) for item in node.body
                           if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            else:
                owners.append(("<module>", node))
        for owner, root in owners:
            for sub in ast.walk(root):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Attribute)
                        and sub.value.attr == "linalg"):
                    yield path.stem, owner, sub.attr


def test_eigenvalue_calls_only_at_the_named_sites():
    found = Counter(call for call in _linalg_calls() if call[2].startswith("eig"))
    assert found == EIGEN_SITES


def test_matrix_core_calls_linalg_only_in_the_batched_kernels():
    owners = {owner for module, owner, _ in _linalg_calls() if module == "matrix_core"}
    assert owners == MATRIX_CORE_LINALG
