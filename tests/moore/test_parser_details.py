"""Moore parser: AST shapes, literals, precedence, and error reporting."""

import pytest

from repro.moore import MooreError, MooreSyntaxError, compile_sv, parse_source
from repro.moore import ast
from repro.moore.lexer import parse_based_literal, tokenize


def _first_module(text):
    return parse_source(text).modules[0]


def test_based_literals():
    assert parse_based_literal("8'hFF") == (8, 255, False)
    assert parse_based_literal("4'b1010") == (4, 10, False)
    assert parse_based_literal("32'd15") == (32, 15, False)
    assert parse_based_literal("'hA") == (None, 10, False)
    assert parse_based_literal("4'b1x1z") == (4, 0b1010, True)
    assert parse_based_literal("16'hDEAD") == (16, 0xDEAD, False)
    assert parse_based_literal("8'h_F_F") == (8, 255, False)


def test_operator_precedence():
    module = _first_module("""
    module m;
      logic [7:0] a, b, c, y;
      assign y = a + b * c;
    endmodule
    """)
    assign = next(i for i in module.items
                  if isinstance(i, ast.ContinuousAssign))
    assert isinstance(assign.value, ast.Binary)
    assert assign.value.op == "+"
    assert assign.value.rhs.op == "*"


def test_ternary_is_right_associative():
    module = _first_module("""
    module m;
      logic a, b, y;
      assign y = a ? b : a ? a : b;
    endmodule
    """)
    assign = next(i for i in module.items
                  if isinstance(i, ast.ContinuousAssign))
    assert isinstance(assign.value, ast.Ternary)
    assert isinstance(assign.value.if_false, ast.Ternary)


def test_nonblocking_vs_lessequal():
    module = _first_module("""
    module m (input clk);
      logic [7:0] q, d;
      logic ok;
      always_ff @(posedge clk) begin
        q <= d;
        ok <= q <= d;
      end
    endmodule
    """)
    always = next(i for i in module.items
                  if isinstance(i, ast.AlwaysBlock))
    stmts = always.body.statements
    assert isinstance(stmts[0], ast.Assign) and not stmts[0].blocking
    assert isinstance(stmts[1].value, ast.Binary)
    assert stmts[1].value.op == "<="


def test_replication_inside_concat():
    module = _first_module("""
    module m;
      logic [31:0] instr, imm;
      assign imm = {{20{instr[31]}}, instr[31:20]};
    endmodule
    """)
    assign = next(i for i in module.items
                  if isinstance(i, ast.ContinuousAssign))
    assert isinstance(assign.value, ast.Concat)
    assert isinstance(assign.value.parts[0], ast.Replicate)
    assert isinstance(assign.value.parts[1], ast.PartSelect)


def test_wildcard_connection():
    module = _first_module("""
    module m;
      logic a;
      sub s (.*);
    endmodule
    """)
    inst = next(i for i in module.items
                if isinstance(i, ast.Instantiation))
    assert inst.wildcard


def test_parameter_override_parses():
    module = _first_module("""
    module m;
      sub #(.W(16), .D(4)) s (.a(a));
    endmodule
    """)
    inst = next(i for i in module.items
                if isinstance(i, ast.Instantiation))
    assert [n for n, _ in inst.param_overrides] == ["W", "D"]


def test_do_while_with_postincrement():
    module = _first_module("""
    module m;
      int i;
      initial begin
        do begin
          i = i;
        end while (i++ < 10);
      end
    endmodule
    """)
    always = next(i for i in module.items
                  if isinstance(i, ast.AlwaysBlock))
    dw = always.body.statements[0]
    assert isinstance(dw, ast.DoWhile)
    assert isinstance(dw.cond.lhs, ast.PostIncrement)


def test_syntax_error_reports_line():
    with pytest.raises(MooreSyntaxError) as excinfo:
        parse_source("module m;\n  assign = 1;\nendmodule")
    assert excinfo.value.line == 2


def test_digit_outside_literal_base_is_a_moore_error():
    with pytest.raises(MooreError, match="digit outside base 2") as excinfo:
        compile_sv("module m;\n  logic [7:0] x;\n"
                   "  initial x = 8'b0110011b;\nendmodule\n")
    assert excinfo.value.line == 3


def test_unterminated_module():
    with pytest.raises(MooreSyntaxError):
        parse_source("module m; logic a;")


def test_time_literal_token():
    tokens = tokenize("#1.5ns;")
    kinds = [t.kind for t in tokens]
    assert "time" in kinds


def test_case_with_multiple_labels():
    module = _first_module("""
    module m;
      logic [1:0] s;
      logic y;
      always_comb begin
        case (s)
          2'd0, 2'd1: y = 1'b0;
          default: y = 1'b1;
        endcase
      end
    endmodule
    """)
    always = next(i for i in module.items
                  if isinstance(i, ast.AlwaysBlock))
    case = always.body.statements[0]
    labels, _ = case.items[0]
    assert len(labels) == 2
