"""QASM dialect used by the paper's tool chain.

The paper stores synthesized circuits in a small Quantum Assembly Language
(Figure 3).  A program is read line by line; each line holds at most one
statement, a head word and its comma-separated operands:

* ``QUBIT name[,initial]`` — declare a qubit, optionally initialised to 0 or
  1; ``QREG`` is the same keyword.
* ``<gate> q`` — one-qubit gates: ``H X Y Z S SDAG T TDAG`` and ``PREPARE``
  (state preparation to ``|0>``); ``S-DAG``/``SD`` and ``T-DAG``/``TD`` are
  aliases of ``SDAG`` and ``TDAG``.
* ``<gate> a,b`` — two-qubit gates: ``C-X``, ``C-Y`` and ``C-Z`` (control
  ``a``, target ``b``) and ``SWAP``; ``CNOT``/``CX``, ``CY`` and ``CZ`` are
  aliases of the controlled gates.
* ``MEASURE q`` — measurement in the computational basis; ``MEAS`` is an
  alias.
* ``#`` and ``//`` start a comment that runs to the end of the line; blank
  lines are skipped.

Keywords and gate names are case-insensitive; qubit names are not.  A name
starts with an ASCII letter or ``_`` (or with digits followed by a letter
or ``-``) and may contain letters, digits, ``_``, ``-``, ``[`` and ``]``,
so ``q[0]`` and ``anc-1`` are names.  An initial value is a run of digits.

:func:`parse_qasm` and :func:`parse_qasm_file` read a program into a
:class:`repro.circuits.QuantumCircuit` and refuse any other text with a
:class:`~repro.errors.QasmError` naming its line; :func:`write_qasm`
serialises a circuit back to text.  The functions round-trip.
"""

from repro.qasm.parser import parse_qasm, parse_qasm_file
from repro.qasm.writer import write_qasm

__all__ = ["parse_qasm", "parse_qasm_file", "write_qasm"]
