"""The import contract: which names each module takes from the others.

The three methods (fermionic sum, quasi-particle count, PBW product) check
one another only while they share no code beyond what the ROADMAP North
star records.  This walks `src/qpchar/*.py` and `tests/oracles.py` with
`ast`, as `tests/test_source_syntax.py` does, and compares each module's
set of (module, name) pairs imported from `qpchar` with `ALLOWED`, whose
row comments name the recorded decisions.  A new shared name fails here
until this table and the ROADMAP both record it.
Imports of a whole module (`import qpchar.x`, `from . import x`,
`from qpchar import x`) are refused, since their attribute reads would get
round the table.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [*sorted((ROOT / "src" / "qpchar").glob("*.py")), ROOT / "tests" / "oracles.py"]

_CODEC = {"_from_packed", "_pack", "_slot_width"}

ALLOWED: dict[str, set[tuple[str, str]]] = {
    # the front ends join the methods and share no maths among them
    "__init__": {
        ("fermionic", "ModuleSpec"), ("fermionic", "character_fermionic"),
        ("partitions", "Partition"), ("partitions", "conjugate"),
        ("partitions", "diag_energy_from_charges"), ("partitions", "diag_energy_from_dual"),
        ("partitions", "mixed_energy_from_charges"), ("partitions", "mixed_energy_from_dual"),
        ("partitions", "validate_partition"),
        ("pbw_oracle", "POSITIVE_ROOTS"), ("pbw_oracle", "pbw_enumerated"), ("pbw_oracle", "product_side"),
        ("qp_enum", "QPMonomial"), ("qp_enum", "enumerate_basis"), ("qp_enum", "is_valid"),
        ("qp_enum", "iter_basis_monomials"),
        ("series", "OutOfTruncation"), ("series", "SeriesError"), ("series", "TruncatedSeries"),
        ("series", "TruncationMismatch"),
    },
    "__main__": {("cli", "main")},
    # the CLI; one lister: `_partitions_of` serves the conjugation check
    "cli": {
        ("fermionic", "ModuleSpec"), ("fermionic", "character_fermionic"),
        ("partitions", "_partitions_of"), ("partitions", "conjugate"),
        ("partitions", "diag_energy_from_charges"), ("partitions", "diag_energy_from_dual"),
        ("partitions", "mixed_energy_from_charges"), ("partitions", "mixed_energy_from_dual"),
        ("pbw_oracle", "pbw_enumerated"), ("pbw_oracle", "product_side"),
        ("qp_enum", "enumerate_basis"),
        ("series", "TruncatedSeries"), ("series", "validate_trunc"),
    },
    # the packed codec: the kernels share the format, none of the maths
    "fermionic": {("series", n) for n in {"TruncatedSeries", "validate_trunc", *_CODEC}},
    "partitions": set(),
    # one lister, shared with the conjugation check; one store, `_built`;
    # the packed PBW layers use no codec
    "pbw_oracle": {
        ("partitions", "_partitions_of"),
        ("series", "TruncatedSeries"), ("series", "_built"), ("series", "validate_trunc"),
    },
    "qp_enum": {
        # the run slack table: T_l is its own recurrence, not the fermionic
        # sum's 1/(q)_d table, so only the spec comes from `fermionic`
        ("fermionic", "ModuleSpec"), ("fermionic", "validate_spec"),
        # charge lists and their greedy energy, which the conjugation
        # identities tie to the dual counts of the fermionic sum
        ("partitions", "Partition"), ("partitions", "conjugate"),
        ("partitions", "diag_energy_from_charges"), ("partitions", "validate_partition"),
        # the packed codec, with `_slots` for the DP rows
        *{("series", n) for n in {"TruncatedSeries", "validate_trunc", "_slots", *_CODEC}},
    },
    "series": set(),
    "oracles": {
        ("partitions", "conjugate"), ("partitions", "diag_energy_from_charges"),
        # `is_valid` behind the box oracles; the color-1 dual-count walk and
        # the charge-list walk behind the index set of `pair_sum_character`
        # and the per-type walk `_charge_types`; T_l for the list DP
        # `list_basis_count`, the one reference of the packed rows
        ("qp_enum", "QPMonomial"), ("qp_enum", "is_valid"), ("qp_enum", "_charge_types"),
        ("qp_enum", "_color1_dual_counts"), ("qp_enum", "_color2_charge_lists"),
        ("qp_enum", "_run_slack"),
        ("series", "TruncatedSeries"),
    },
}


def _package_imports(tree: ast.AST) -> tuple[set[tuple[str, str]], list[int]]:
    """The (module, name) pairs imported from `qpchar` submodules, and the
    lines that import a module or the package itself."""
    names: set[tuple[str, str]] = set()
    refused: list[int] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "qpchar" or a.name.startswith("qpchar.") for a in node.names):
                refused.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module == "qpchar" or (node.module or "").startswith("qpchar."):
                module = node.module.removeprefix("qpchar").removeprefix(".") or None
            else:
                continue  # not the package
            if module is None:
                refused.append(node.lineno)
            else:
                names.update((module, a.name) for a in node.names)
    return names, refused


def test_every_module_has_a_row():
    assert {path.stem for path in SOURCES} == set(ALLOWED)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_match_the_table(path):
    names, refused = _package_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert refused == []
    assert names == ALLOWED[path.stem]


def test_module_imports_are_caught():
    src = (
        "import qpchar.fermionic\n"
        "from . import fermionic\n"
        "from qpchar import fermionic\n"
        "import qpchar\n"
        "def f():\n"
        "    from .fermionic import character_fermionic\n"
        "from qpchar.series import _pack\n"
        "import os\n"
        "from os import path\n"
    )
    names, refused = _package_imports(ast.parse(src))
    assert refused == [1, 2, 3, 4]
    assert names == {("fermionic", "character_fermionic"), ("series", "_pack")}
