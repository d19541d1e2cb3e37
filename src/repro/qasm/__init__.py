"""QASM dialect used by the paper's tool chain.

The paper stores synthesized circuits in a small Quantum Assembly Language
(Figure 3).  The dialect supported here covers:

* ``QUBIT  name[,initial]`` — declare a qubit, optionally initialised to 0/1.
* ``<gate> q`` — one-qubit gates: ``H X Y Z S Sdag T Tdag``.
* ``C-X a,b`` / ``C-Y a,b`` / ``C-Z a,b`` — controlled Paulis (control ``a``,
  target ``b``); ``CNOT`` is accepted as an alias of ``C-X``.
* ``MEASURE q`` — measurement in the computational basis.
* ``#`` and ``//`` line comments, blank lines.

:func:`parse_qasm` produces a :class:`repro.circuits.QuantumCircuit`;
:func:`write_qasm` serialises a circuit back to text.  The two functions
round-trip.
"""

from repro.qasm.ast import GateStatement, MeasureStatement, QasmProgram, QubitDeclaration
from repro.qasm.lexer import Token, TokenKind, tokenize_line
from repro.qasm.parser import parse_qasm, parse_qasm_file, parse_program
from repro.qasm.writer import write_qasm

__all__ = [
    "QasmProgram",
    "QubitDeclaration",
    "GateStatement",
    "MeasureStatement",
    "Token",
    "TokenKind",
    "tokenize_line",
    "parse_program",
    "parse_qasm",
    "parse_qasm_file",
    "write_qasm",
]
