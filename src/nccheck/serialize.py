"""JSON encoding for the nccheck/1 document schema.

Complex scalars serialize as two-element [re, im] arrays; matrices as
row-major nested arrays of those pairs.
"""

from __future__ import annotations

import math

import numpy as np

SCHEMA_VERSION = "nccheck/1"


class DocumentError(ValueError):
    """Parse/shape failure, carrying the offending field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def matrix_to_json(m):
    a = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _finite_number(x):
    """A JSON number that is a finite float; booleans are not numbers here."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def matrix_from_json(data, path):
    if not isinstance(data, list) or not data:
        raise DocumentError(path, "expected a non-empty nested array")
    n = len(data)
    out = np.zeros((n, len(data[0])), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != out.shape[1]:
            raise DocumentError(f"{path}[{i}]", "ragged matrix rows")
        for j, z in enumerate(row):
            if not isinstance(z, list) or len(z) != 2 or not all(map(_finite_number, z)):
                raise DocumentError(
                    f"{path}[{i}][{j}]", "complex scalar must be [re, im] of finite numbers"
                )
            out[i, j] = complex(z[0], z[1])
    if out.shape[0] != out.shape[1]:
        raise DocumentError(path, f"matrix must be square, got {out.shape}")
    return out


def triple_to_document(t, metadata=None):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "hilbert_dim": t.hilbert_dim,
        "algebra_generators": [matrix_to_json(g) for g in t.algebra_generators],
        "dirac": matrix_to_json(t.dirac),
        "grading": None if t.grading is None else matrix_to_json(t.grading),
        "real_structure": None,
        "metadata": dict(metadata or {}),
    }
    if t.real_structure is not None:
        rs = {"kernel": matrix_to_json(t.real_structure.j.kernel)}
        rs["twist"] = (
            None if t.real_structure.twist is None else matrix_to_json(t.real_structure.twist)
        )
        doc["real_structure"] = rs
    return doc


def triple_from_document(doc, tol=None):
    from .numlin import DEFAULT_TOL
    from .triple import FiniteSpectralTriple, RealStructure

    tol = DEFAULT_TOL if tol is None else tol
    if not isinstance(doc, dict):
        raise DocumentError("$", "document must be a JSON object")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DocumentError("metadata", "expected a JSON object")
    if not isinstance(metadata.get("expected", {}), dict):
        raise DocumentError("metadata.expected", "expected a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise DocumentError("schema_version", f"expected {SCHEMA_VERSION!r}, got {version!r}")
    if "dirac" not in doc:
        raise DocumentError("dirac", "missing required field")
    gens_data = doc.get("algebra_generators")
    if not isinstance(gens_data, list):
        raise DocumentError("algebra_generators", "expected a list of matrices")
    gens = [
        matrix_from_json(g, f"algebra_generators[{i}]") for i, g in enumerate(gens_data)
    ]
    dirac = matrix_from_json(doc["dirac"], "dirac")
    n = doc.get("hilbert_dim", dirac.shape[0])
    if isinstance(n, bool) or not isinstance(n, int):
        raise DocumentError("hilbert_dim", f"expected an integer, got {n!r}")
    if dirac.shape[0] != n:
        raise DocumentError("hilbert_dim", f"dirac is {dirac.shape[0]}x{dirac.shape[0]}, declared {n}")
    grading = None
    if doc.get("grading") is not None:
        grading = matrix_from_json(doc["grading"], "grading")
    real = None
    rs = doc.get("real_structure")
    if rs is not None:
        if not isinstance(rs, dict) or "kernel" not in rs:
            raise DocumentError("real_structure", "expected object with 'kernel'")
        kernel = matrix_from_json(rs["kernel"], "real_structure.kernel")
        twist = None
        if rs.get("twist") is not None:
            twist = matrix_from_json(rs["twist"], "real_structure.twist")
        real = RealStructure(kernel, twist, tol)
    return FiniteSpectralTriple(
        gens,
        dirac,
        grading=grading,
        real_structure=real,
        tol=tol,
        name=metadata.get("name"),
    )
