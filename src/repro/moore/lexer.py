"""Lexer for the SystemVerilog subset accepted by the Moore frontend."""

from __future__ import annotations

import re


class MooreError(Exception):
    """Raised on semantic errors during elaboration/codegen.

    The base of every error the frontend raises, so ``compile_sv``
    callers catch one type.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MooreSyntaxError(MooreError):
    """Raised on lexical or syntactic errors, with a line number."""


KEYWORDS = frozenset({
    "module", "endmodule", "input", "output", "inout", "parameter",
    "localparam", "logic", "bit", "wire", "reg", "int", "integer",
    "genvar", "assign", "always", "always_ff", "always_comb",
    "always_latch", "initial", "final", "begin", "end", "if", "else",
    "case", "casez", "endcase", "default", "for", "while", "do",
    "posedge", "negedge", "or", "and", "not", "function", "endfunction",
    "return", "automatic", "generate", "endgenerate", "assert",
    "typedef", "enum", "struct", "packed", "signed", "unsigned", "void",
})

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<time>\d+(?:\.\d+)?(?:s|ms|us|ns|ps|fs)\b)
  | (?P<based>\d*'[sS]?[bodhBODH][0-9a-fA-FxXzZ_?]+)
  | (?P<unbased>'[01xXzZ])
  | (?P<number>\d[\d_]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<system>\$[a-zA-Z_][a-zA-Z0-9_]*)
  | (?P<ident>[a-zA-Z_][a-zA-Z0-9_$]*)
  | (?P<punct><<<|>>>|<<=|>>=|\+\+|--|\*\*|<<|>>|<=|>=|==\?|!=\?|===|!==|==|!=|&&|\|\||->|\+=|-=|\*=|/=|&=|\|=|\^=|::|[(){}\[\];,.:#=+\-*/%&|^~!<>?@])
""", re.VERBOSE | re.DOTALL)


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, line={self.line})"


def tokenize(source):
    """Tokenize SystemVerilog source; comments and whitespace dropped."""
    tokens = []
    pos = 0
    line = 1
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise MooreSyntaxError(
                f"unexpected character {source[pos]!r}", line)
        kind = m.lastgroup
        text = m.group()
        line += text.count("\n")
        pos = m.end()
        if kind in ("ws", "line_comment", "block_comment"):
            continue
        if kind == "ident" and text in KEYWORDS:
            kind = "keyword"
        tokens.append(Token(kind, text, line))
    tokens.append(Token("eof", "", line))
    return tokens


def parse_based_literal(text, line=None):
    """Parse ``8'hFF`` / ``'b1010`` -> (width or None, value, has_xz)."""
    width_part, rest = text.split("'", 1)
    width = int(width_part) if width_part else None
    rest = rest.lstrip("sS")
    base_char = rest[0].lower()
    digits = rest[1:].replace("_", "")
    base = {"b": 2, "o": 8, "d": 10, "h": 16}[base_char]
    has_xz = any(c in "xXzZ?" for c in digits)
    if has_xz:
        cleaned = re.sub(r"[xXzZ?]", "0", digits)
    else:
        cleaned = digits
    try:
        value = int(cleaned, base) if cleaned else 0
    except ValueError:
        raise MooreSyntaxError(
            f"digit outside base {base} in literal {text!r}", line) from None
    return width, value, has_xz
