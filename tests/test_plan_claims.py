"""Boundary gate: plans carry no partition or effect claims.

The optimizer ends at Step 6 with an access plan, and the plan
verifier judges that plan's own invariants.  Partition and effect
soundness belong to their certificate modules, which derive them from
the plan when asked.  So no optimizer module and not the plan rules
import :mod:`repro.analysis.partition` or :mod:`repro.analysis.effects`
(directly, or through the ``repro.analysis`` package's lazy exports),
and :class:`~repro.optimizer.plans.PhysicalPlan` has no field to hold a
claim.
"""

import ast
import dataclasses
from pathlib import Path

import repro
import repro.analysis
from repro.optimizer.plans import PhysicalPlan

CERTIFICATE_MODULES = {"repro.analysis.partition", "repro.analysis.effects"}
ROOT = Path(repro.__file__).parent
SOURCES = sorted((ROOT / "optimizer").glob("*.py")) + [ROOT / "analysis" / "plan_rules.py"]


def certificate_imports(tree: ast.AST) -> list[str]:
    """Every import in ``tree`` that reaches a certificate module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in CERTIFICATE_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            if node.module in CERTIFICATE_MODULES:
                found.append(node.module)
            elif node.module == "repro.analysis":
                for alias in node.names:
                    target = repro.analysis._EXPORTS.get(alias.name, f"repro.analysis.{alias.name}")
                    if target in CERTIFICATE_MODULES:
                        found.append(f"{target} ({alias.name})")
    return found


def test_plans_carry_no_certificate_claims():
    offenders = {
        path.relative_to(ROOT).as_posix(): imports
        for path in SOURCES
        if (imports := certificate_imports(ast.parse(path.read_text(), str(path))))
    }
    assert offenders == {}
    assert "extras" not in {field.name for field in dataclasses.fields(PhysicalPlan)}
