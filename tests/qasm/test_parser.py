"""Tests for the QASM parser."""

import pytest

from repro.circuits.qecc import FIVE_ONE_THREE_QASM
from repro.errors import QasmError
from repro.qasm.ast import GateStatement, MeasureStatement, QubitDeclaration
from repro.qasm.parser import parse_program, parse_qasm, parse_qasm_file


class TestParseProgram:
    def test_declarations(self):
        program = parse_program("QUBIT q0,0\nQUBIT q1\n")
        decls = program.declarations
        assert len(decls) == 2
        assert decls[0] == QubitDeclaration("q0", 0, 1)
        assert decls[1].initial is None

    def test_gate_statement(self):
        program = parse_program("QUBIT a\nQUBIT b\nC-X a,b\n")
        assert program.statements[2:] == [GateStatement("C-X", ("a", "b"), 3)]

    def test_measure_statement(self):
        program = parse_program("QUBIT a\nMEASURE a\n")
        assert isinstance(program.statements[1], MeasureStatement)

    def test_case_insensitive_keywords(self):
        program = parse_program("qubit a\nh a\nmeasure a\n")
        assert [type(statement) for statement in program] == [
            QubitDeclaration, GateStatement, MeasureStatement,
        ]

    def test_comments_and_blank_lines_ignored(self):
        program = parse_program("# header\n\nQUBIT a  // data qubit\nH a\n")
        assert len(program) == 2

    def test_qubit_names_in_order(self):
        program = parse_program("QUBIT b\nQUBIT a\n")
        assert program.qubit_names() == ["b", "a"]

    def test_str_roundtrips_statements(self):
        program = parse_program("QUBIT q0,0\nH q0\n")
        assert "QUBIT q0,0" in str(program)
        assert "H q0" in str(program)


class TestParseErrors:
    def test_missing_operand(self):
        with pytest.raises(QasmError):
            parse_program("QUBIT a\nH\n")

    def test_trailing_comma(self):
        with pytest.raises(QasmError):
            parse_program("QUBIT a\nQUBIT b\nC-X a,b,\n")

    def test_double_comma(self):
        with pytest.raises(QasmError):
            parse_program("QUBIT a\nQUBIT b\nC-X a,,b\n")

    def test_bad_initial_value(self):
        with pytest.raises(QasmError):
            parse_program("QUBIT a,2\n")

    def test_non_integer_initial_value(self):
        with pytest.raises(QasmError):
            parse_program("QUBIT a,b\n")

    def test_measure_needs_one_operand(self):
        with pytest.raises(QasmError):
            parse_program("QUBIT a\nQUBIT b\nMEASURE a,b\n")

    def test_qubit_requires_name(self):
        with pytest.raises(QasmError):
            parse_program("QUBIT\n")


class TestParseQasm:
    def test_paper_circuit(self):
        circuit = parse_qasm(FIVE_ONE_THREE_QASM)
        assert circuit.num_qubits == 5
        assert circuit.num_single_qubit_gates == 4
        assert circuit.num_two_qubit_gates == 8

    def test_unknown_gate_rejected(self):
        with pytest.raises(Exception):
            parse_qasm("QUBIT a\nFOO a\n")

    def test_undeclared_qubit_rejected(self):
        with pytest.raises(Exception):
            parse_qasm("QUBIT a\nH b\n")

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(Exception):
            parse_qasm("QUBIT a\nQUBIT a\n")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(Exception):
            parse_qasm("QUBIT a\nQUBIT b\nH a,b\n")

    def test_cnot_alias(self):
        circuit = parse_qasm("QUBIT a\nQUBIT b\nCNOT a,b\n")
        assert circuit.instructions[0].gate.name == "C-X"

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "bell.qasm"
        path.write_text("QUBIT a,0\nQUBIT b,0\nH a\nC-X a,b\n")
        circuit = parse_qasm_file(path)
        assert circuit.name == "bell"
        assert circuit.num_instructions == 2
