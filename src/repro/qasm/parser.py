"""Reader of the QASM dialect: source text straight into a circuit.

Each line is read on its own: the comment is cut off, the head word is
split from the comma-separated operands, every word is checked against the
dialect's name and integer rules, and the line becomes one call on the
circuit: :meth:`~repro.circuits.QuantumCircuit.add_qubit` for ``QUBIT`` and
``QREG``, :meth:`~repro.circuits.QuantumCircuit.append` for everything else
(``MEASURE`` is a gate of the registry, too).  The circuit checks what it
already knows: gate names and arities, declared and duplicate qubits, and
the 0/1 initial value.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import CircuitError, QasmError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.circuits.circuit import QuantumCircuit

#: Head words that declare a qubit; every other head word names a gate.
_QUBIT_KEYWORDS = {"QUBIT", "QREG"}
#: ``#`` or ``//`` starts a comment that runs to the end of the line.
_COMMENT = re.compile(r"#|//")
#: An integer: decimal digits of any script.
_INTEGER = re.compile(r"\d+")
#: A gate or qubit name: a letter or ``_``, or digits then a letter or ``-``,
#: followed by word characters, ``-``, ``[`` and ``]``.  Digits alone are an
#: integer, and digits followed by a bracket are no word at all.
_NAME = re.compile(r"(?:[A-Za-z_]|\d+(?:[^\W\d]|-))[\w\-\[\]]*")


def _word(text: str, pattern: re.Pattern, what: str) -> str:
    """``text`` if it is one whole ``pattern`` word, else a refusal."""
    if pattern.fullmatch(text) is None:
        raise CircuitError(f"expected {what}, got {text!r}")
    return text


def _read_line(circuit: "QuantumCircuit", words: list[str]) -> None:
    """Apply one statement (its head word and the rest of the line)."""
    head = _word(words[0], _NAME, "a keyword or gate name")
    operands = [operand.strip() for operand in words[1].split(",")] if len(words) > 1 else []
    if head.upper() not in _QUBIT_KEYWORDS:
        circuit.append(head, *(_word(operand, _NAME, "a qubit name") for operand in operands))
        return
    if not 1 <= len(operands) <= 2:
        raise CircuitError(f"{head} takes a qubit name and an optional initial value")
    name = _word(operands[0], _NAME, "a qubit name")
    initial = None
    if len(operands) == 2:
        initial = int(_word(operands[1], _INTEGER, "an integer initial value"))
    circuit.add_qubit(name, initial)


def parse_qasm(source: str, *, name: str = "circuit") -> "QuantumCircuit":
    """Parse QASM source text into a :class:`QuantumCircuit`.

    Qubits used by gates must have been declared by a prior ``QUBIT``
    statement; gate names and arities are validated against the gate registry.

    Args:
        source: Full QASM program text.
        name: Name given to the resulting circuit.

    Returns:
        The circuit the program describes.

    Raises:
        QasmError: On syntax errors, unknown gates, arity mismatches or
            references to undeclared qubits, naming the offending line.
    """
    from repro.circuits.circuit import QuantumCircuit

    circuit = QuantumCircuit(name)
    for number, line in enumerate(source.splitlines(), start=1):
        words = _COMMENT.split(line, 1)[0].split(None, 1)
        if not words:
            continue
        try:
            _read_line(circuit, words)
        except (CircuitError, ValueError) as exc:  # ValueError: too many digits for int()
            raise QasmError(str(exc), number) from exc
    return circuit


def parse_qasm_file(path: str | Path, *, name: str | None = None) -> "QuantumCircuit":
    """Parse a UTF-8 QASM file from disk into a :class:`QuantumCircuit`.

    Args:
        path: Path of the ``.qasm`` file.
        name: Optional circuit name; defaults to the file stem.

    Returns:
        The circuit the file describes.

    Raises:
        QasmError: If the file cannot be read as UTF-8 text, naming the
            path, or if its program is refused (see :func:`parse_qasm`).
    """
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise QasmError(f"cannot read QASM file {path}: {exc}") from exc
    return parse_qasm(source, name=name or path.stem)
