"""Abstract syntax tree for the QASM dialect.

The AST is deliberately simple: a program is an ordered list of statements,
and a statement is either a qubit declaration, a gate application or a
measurement.  Statements keep the source line number so later stages can emit
precise error messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence


@dataclass(frozen=True)
class QubitDeclaration:
    """``QUBIT name[,initial]`` — declare a named qubit.

    Attributes:
        name: Qubit identifier, e.g. ``q3``.
        initial: Optional initial classical value (0 or 1).  The paper's
            benchmark files use ``QUBIT q0,0`` for ancillas initialised to
            ``|0>`` and a bare ``QUBIT q3`` for the data qubit.
        line: 1-based source line number, 0 when synthesised in memory.
    """

    name: str
    initial: int | None = None
    line: int = 0

    def __str__(self) -> str:
        if self.initial is None:
            return f"QUBIT {self.name}"
        return f"QUBIT {self.name},{self.initial}"


@dataclass(frozen=True)
class GateStatement:
    """``GATE q[,q2]`` — apply a one- or two-qubit gate.

    Attributes:
        gate: Canonical gate mnemonic (``H``, ``C-X``, ...).
        operands: Qubit names; for controlled gates the control comes first.
        line: 1-based source line number, 0 when synthesised in memory.
    """

    gate: str
    operands: tuple[str, ...]
    line: int = 0

    def __str__(self) -> str:
        return f"{self.gate} {','.join(self.operands)}"


@dataclass(frozen=True)
class MeasureStatement:
    """``MEASURE q`` — measure a qubit in the computational basis."""

    qubit: str
    line: int = 0

    def __str__(self) -> str:
        return f"MEASURE {self.qubit}"


Statement = QubitDeclaration | GateStatement | MeasureStatement


@dataclass
class QasmProgram:
    """An ordered sequence of QASM statements.

    The program preserves declaration order, which later defines both the
    qubit indexing and the program order used to build the dependency graph.
    """

    statements: list[Statement] = field(default_factory=list)

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)

    @property
    def declarations(self) -> list[QubitDeclaration]:
        """All qubit declarations in program order."""
        return [s for s in self.statements if isinstance(s, QubitDeclaration)]

    def qubit_names(self) -> list[str]:
        """Names of all declared qubits, in declaration order."""
        return [d.name for d in self.declarations]

    def extend(self, statements: Sequence[Statement]) -> None:
        """Append ``statements`` to the program."""
        self.statements.extend(statements)

    def __str__(self) -> str:
        return "\n".join(str(s) for s in self.statements)
