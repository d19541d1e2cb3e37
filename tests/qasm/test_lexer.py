"""Tests for the QASM lexer."""

import pytest

from repro.errors import QasmError
from repro.qasm.lexer import TokenKind, strip_comment, tokenize_line


class TestStripComment:
    def test_hash_comment(self):
        assert strip_comment("H q0 # apply hadamard") == "H q0 "

    def test_slash_comment(self):
        assert strip_comment("H q0 // apply hadamard") == "H q0 "

    def test_no_comment(self):
        assert strip_comment("H q0") == "H q0"

    def test_comment_only(self):
        assert strip_comment("# whole line").strip() == ""


class TestTokenizeLine:
    def test_gate_line(self):
        tokens = tokenize_line("C-X q3,q2", 1)
        assert [t.kind for t in tokens] == [
            TokenKind.IDENT,
            TokenKind.IDENT,
            TokenKind.COMMA,
            TokenKind.IDENT,
        ]
        assert [t.text for t in tokens] == ["C-X", "q3", ",", "q2"]

    def test_qubit_declaration_with_initial(self):
        tokens = tokenize_line("QUBIT q0,0", 3)
        assert tokens[0].text == "QUBIT"
        assert tokens[1].text == "q0"
        assert tokens[2].kind is TokenKind.COMMA
        assert tokens[3].kind is TokenKind.INTEGER
        assert tokens[3].value == 0

    def test_blank_line(self):
        assert tokenize_line("   ") == []

    def test_comment_line(self):
        assert tokenize_line("# just a comment") == []

    def test_columns_recorded(self):
        assert [t.column for t in tokenize_line("C-X q3,q2")] == [0, 4, 6, 7]

    def test_trailing_comment_dropped(self):
        tokens = tokenize_line("H q0 // apply hadamard", 2)
        assert [t.text for t in tokens] == ["H", "q0"]

    def test_line_number_recorded(self):
        tokens = tokenize_line("H q0", 42)
        assert all(t.line == 42 for t in tokens)

    def test_integer_value_on_ident_raises(self):
        tokens = tokenize_line("H q0", 1)
        with pytest.raises(QasmError):
            _ = tokens[0].value

    def test_unexpected_character_raises(self):
        with pytest.raises(QasmError):
            tokenize_line("H @q0", 7)

    def test_error_mentions_line_number(self):
        with pytest.raises(QasmError, match="line 7"):
            tokenize_line("H @q0", 7)

