"""QASM is untrusted input: any text or file is a circuit or a ``QasmError``."""

from hypothesis import given, settings, strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_ALIASES, GATE_REGISTRY
from repro.errors import QasmError
from repro.qasm.parser import parse_qasm, parse_qasm_file

#: The dialect's words, with names and integers that sit on the edges of
#: the name and integer rules.
WORDS = sorted(
    {"QUBIT", "QREG", "qubit", "Qreg", *GATE_REGISTRY, *GATE_ALIASES}
    | {"h", "c-x", "a", "b", "q[0]", "anc-1", "_x", "1a", "1a]", "12]", "1-", "12", "0", "1"}
    | {"01", "2", "١", "０", "²", "é", "ı", "-", "[", "]"}
)
#: Separators, comments and line breaks.
SEPARATORS = [" ", ",", ", ", " , ", "\t", "　", "\xa0", "\n", "\r\n", "\x0b", "\x85"]
COMMENTS = ["#", "//", "# c,", "// QUBIT z", "/"]

programs = st.lists(
    st.one_of(
        st.sampled_from(WORDS),
        st.sampled_from(SEPARATORS),
        st.sampled_from(COMMENTS),
        st.text(max_size=4),
    ),
    max_size=40,
).map("".join)


def _parses_or_refuses(read, source) -> None:
    try:
        circuit = read(source)
    except QasmError:
        return
    assert isinstance(circuit, QuantumCircuit)


@settings(max_examples=400, deadline=None)
@given(programs)
def test_any_text_is_a_circuit_or_a_qasm_error(source):
    _parses_or_refuses(parse_qasm, source)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=64), programs.map(lambda text: text.encode("utf-8"))))
def test_any_file_is_a_circuit_or_a_qasm_error(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.qasm"
    path.write_bytes(content)
    _parses_or_refuses(parse_qasm_file, path)
