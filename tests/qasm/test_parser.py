"""Tests for the QASM reader: comments, words, statements and refusals."""

import pytest

from repro.circuits.qecc import FIVE_ONE_THREE_QASM
from repro.errors import CircuitError, QasmError
from repro.qasm.parser import parse_qasm, parse_qasm_file


def _ops(circuit):
    """``(gate, operands)`` of every instruction, in program order."""
    return [(i.gate.name, i.qubit_names) for i in circuit.instructions]


class TestComments:
    def test_hash_comment(self):
        assert _ops(parse_qasm("QUBIT q0\nH q0 # apply hadamard")) == [("H", ("q0",))]

    def test_slash_comment(self):
        assert _ops(parse_qasm("QUBIT q0\nH q0 // apply hadamard")) == [("H", ("q0",))]

    def test_no_comment(self):
        assert _ops(parse_qasm("QUBIT q0\nH q0")) == [("H", ("q0",))]

    def test_comment_only(self):
        assert parse_qasm("# whole line").num_qubits == 0

    def test_comment_line(self):
        assert parse_qasm("# just a comment\n// another").num_instructions == 0

    def test_blank_line(self):
        assert parse_qasm("   \n\t\n").num_qubits == 0

    def test_trailing_comment_dropped(self):
        # The comment cuts the line before the words are read: its commas,
        # keywords and unknown characters are never seen.
        circuit = parse_qasm("QUBIT q0 # QUBIT q1,7 @\nH q0 // FROB q0,q0")
        assert [q.name for q in circuit.qubits] == ["q0"]
        assert _ops(circuit) == [("H", ("q0",))]


class TestWords:
    def test_gate_line(self):
        circuit = parse_qasm("QUBIT q2\nQUBIT q3\nC-X q3,q2")
        assert _ops(circuit) == [("C-X", ("q3", "q2"))]

    def test_qubit_declaration_with_initial(self):
        (qubit,) = parse_qasm("QUBIT q0,0").qubits
        assert (qubit.name, qubit.initial_value) == ("q0", 0)

    def test_whitespace_around_commas(self):
        circuit = parse_qasm("QUBIT a , 1\nQUBIT b\nC-X\ta ,　b")
        assert circuit.qubits[0].initial_value == 1
        assert _ops(circuit) == [("C-X", ("a", "b"))]

    @pytest.mark.parametrize("name", ["q[0]", "anc-1", "_x", "1a", "1a]", "1-[", "qé"])
    def test_names_may_hold_dashes_brackets_and_leading_digits(self, name):
        circuit = parse_qasm(f"QUBIT {name}\nMEASURE {name}")
        assert _ops(circuit) == [("MEASURE", (name,))]

    @pytest.mark.parametrize("name", ["12", "12]", "1[", "-a", "[0]", "é", "a.b"])
    def test_words_that_are_no_name(self, name):
        # Digits alone are an integer; digits followed by a bracket are no
        # word at all; a name starts with an ASCII letter, `_` or digits.
        with pytest.raises(QasmError, match="line 1"):
            parse_qasm(f"QUBIT {name}")

    @pytest.mark.parametrize(("digits", "value"), [("0", 0), ("01", 1), ("١", 1)])
    def test_an_initial_value_is_a_run_of_digits(self, digits, value):
        assert parse_qasm(f"QUBIT a,{digits}").qubits[0].initial_value == value

    def test_an_overlong_initial_value_is_refused(self):
        # More digits than int() converts by default: refused, not a ValueError.
        with pytest.raises(QasmError, match="line 1"):
            parse_qasm("QUBIT a,2" + "0" * 5000)

    def test_unexpected_character_raises(self):
        with pytest.raises(QasmError):
            parse_qasm("QUBIT q0\nH @q0")

    def test_error_mentions_line_number(self):
        source = "QUBIT q0\n" + "\n" * 40 + "H @q0"
        with pytest.raises(QasmError, match="line 42") as excinfo:
            parse_qasm(source)
        assert excinfo.value.line == 42


class TestStatements:
    def test_declarations(self):
        circuit = parse_qasm("QUBIT q0,0\nQUBIT q1\n")
        assert [(q.name, q.initial_value) for q in circuit.qubits] == [("q0", 0), ("q1", None)]

    def test_gate_statement(self):
        assert _ops(parse_qasm("QUBIT a\nQUBIT b\nC-X a,b\n")) == [("C-X", ("a", "b"))]

    def test_measure_statement(self):
        assert parse_qasm("QUBIT a\nMEASURE a\n").instructions[0].is_measurement

    def test_case_insensitive_keywords(self):
        circuit = parse_qasm("qubit a\nqreg b\nh a\nmeasure a\nmeas b\n")
        assert circuit.num_qubits == 2
        assert _ops(circuit) == [("H", ("a",)), ("MEASURE", ("a",)), ("MEASURE", ("b",))]

    def test_comments_and_blank_lines_ignored(self):
        circuit = parse_qasm("# header\n\nQUBIT a  // data qubit\nH a\n")
        assert (circuit.num_qubits, circuit.num_instructions) == (1, 1)

    def test_qubit_names_in_order(self):
        assert [q.name for q in parse_qasm("QUBIT b\nQUBIT a\n").qubits] == ["b", "a"]

    def test_qubit_names_are_case_sensitive(self):
        with pytest.raises(QasmError, match="not declared"):
            parse_qasm("QUBIT a\nH A\n")

    @pytest.mark.parametrize(
        ("alias", "gate"),
        [("CNOT", "C-X"), ("cx", "C-X"), ("CY", "C-Y"), ("Cz", "C-Z"), ("s-dag", "SDAG"),
         ("SD", "SDAG"), ("T-DAG", "TDAG"), ("td", "TDAG"), ("SWAP", "SWAP")],
    )
    def test_gate_aliases(self, alias, gate):
        arity = 2 if gate in ("C-X", "C-Y", "C-Z", "SWAP") else 1
        circuit = parse_qasm("QUBIT a\nQUBIT b\n" + f"{alias} {','.join('ab'[:arity])}")
        assert circuit.instructions[0].gate.name == gate

    def test_prepare(self):
        assert _ops(parse_qasm("QUBIT a\nPREPARE a")) == [("PREPARE", ("a",))]


class TestParseErrors:
    @pytest.mark.parametrize(
        ("source", "line"),
        [
            ("QUBIT a\nH\n", 2),  # missing operand
            ("QUBIT a\nQUBIT b\nC-X a,b,\n", 3),  # trailing comma
            ("QUBIT a\nQUBIT b\nC-X a,,b\n", 3),  # double comma
            ("QUBIT a\nQUBIT b\nC-X ,a,b\n", 3),  # leading comma
            ("QUBIT a\nQUBIT b\nC-X a b\n", 3),  # missing comma
            ("QUBIT a,2\n", 1),  # bad initial value
            ("QUBIT a,b\n", 1),  # non-integer initial value
            ("QUBIT a,0,1\n", 1),  # too many declaration operands
            ("QUBIT a\nQUBIT b\nMEASURE a,b\n", 3),  # measure needs one operand
            ("QUBIT\n", 1),  # qubit requires a name
            ("QUBIT a\n12 a\n", 2),  # an integer is no keyword
            ("QUBIT a\nC-X a,a\n", 2),  # duplicate operand
        ],
    )
    def test_every_refusal_is_a_qasm_error_naming_its_line(self, source, line):
        with pytest.raises(QasmError, match=f"^line {line}: ") as excinfo:
            parse_qasm(source)
        assert excinfo.value.line == line
        assert isinstance(excinfo.value, CircuitError)

    def test_the_first_refused_line_is_reported(self):
        with pytest.raises(QasmError, match="^line 2: .*FROB"):
            parse_qasm("QUBIT a\nFROB a\nH @\n")


class TestParseQasm:
    def test_paper_circuit(self):
        circuit = parse_qasm(FIVE_ONE_THREE_QASM)
        assert circuit.num_qubits == 5
        assert circuit.num_single_qubit_gates == 4
        assert circuit.num_two_qubit_gates == 8

    def test_unknown_gate_rejected(self):
        with pytest.raises(QasmError, match="^line 2: .*'FOO'"):
            parse_qasm("QUBIT a\nFOO a\n")

    def test_undeclared_qubit_rejected(self):
        with pytest.raises(QasmError, match="^line 2: .*'b' is not declared"):
            parse_qasm("QUBIT a\nH b\n")

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(QasmError, match="^line 2: .*declared twice"):
            parse_qasm("QUBIT a\nQUBIT a\n")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(QasmError, match="^line 3: .*takes 1 operand"):
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


class TestParseQasmFile:
    def test_a_file_is_read_as_utf8(self, tmp_path):
        path = tmp_path / "u.qasm"
        path.write_bytes("QUBIT qé,0  # été\nH qé\n".encode("utf-8"))
        assert [q.name for q in parse_qasm_file(path).qubits] == ["qé"]

    def test_a_file_that_is_not_utf8_is_a_qasm_error_naming_the_path(self, tmp_path):
        path = tmp_path / "bin.qasm"
        path.write_bytes(b"\xff\xfe\x00\x01QUBIT\x80\x81")
        with pytest.raises(QasmError, match="bin.qasm"):
            parse_qasm_file(path)

    def test_an_unreadable_path_is_a_qasm_error(self, tmp_path):
        with pytest.raises(QasmError, match="missing.qasm"):
            parse_qasm_file(tmp_path / "missing.qasm")
