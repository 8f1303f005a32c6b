"""Recursive-descent parser for the Moore SystemVerilog subset."""

from __future__ import annotations

from . import ast
from .lexer import MooreSyntaxError, Token, parse_based_literal, tokenize

# Binary operator precedence (higher binds tighter).
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8, "<<<": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_COMPOUND_ASSIGN = {"+=", "-=", "*=", "/=", "&=", "|=", "^=", "<<=", ">>="}


class Parser:
    def __init__(self, source):
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token plumbing ------------------------------------------------------

    @property
    def tok(self):
        return self.tokens[self.pos]

    def peek(self, offset=1):
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def check(self, kind, text=None):
        tok = self.tok
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind, text=None):
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind, text=None):
        tok = self.accept(kind, text)
        if tok is None:
            want = text if text is not None else kind
            raise MooreSyntaxError(
                f"expected {want!r}, found {self.tok.text!r}", self.tok.line)
        return tok

    def error(self, message):
        raise MooreSyntaxError(message, self.tok.line)

    # -- entry point ------------------------------------------------------------

    def parse_source(self):
        source = ast.SourceFile()
        while not self.check("eof"):
            source.modules.append(self.parse_module())
        return source

    # -- modules -----------------------------------------------------------------

    def parse_module(self):
        line = self.expect("keyword", "module").line
        name = self.expect("ident").text
        module = ast.ModuleDecl(name=name, line=line)
        if self.accept("punct", "#"):
            self.expect("punct", "(")
            while not self.check("punct", ")"):
                self.accept("keyword", "parameter")
                self._skip_data_type_prefix()
                pname = self.expect("ident").text
                default = None
                if self.accept("punct", "="):
                    default = self.parse_expr()
                module.parameters.append(
                    ast.Parameter(name=pname, default=default,
                                  line=self.tok.line))
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ")")
        if self.accept("punct", "("):
            direction = "input"
            data_type = ast.DataType(base="logic")
            while not self.check("punct", ")"):
                if self.tok.kind == "keyword" and self.tok.text in (
                        "input", "output", "inout"):
                    direction = self.advance().text
                    data_type = self.parse_data_type(allow_empty=True)
                elif self._at_data_type():
                    data_type = self.parse_data_type(allow_empty=True)
                pname = self.expect("ident").text
                ptype = self._with_unpacked_dims(data_type)
                module.ports.append(ast.Port(
                    name=pname, direction=direction, data_type=ptype,
                    line=self.tok.line))
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ")")
        self.expect("punct", ";")
        while not self.check("keyword", "endmodule"):
            item = self.parse_module_item()
            if item is not None:
                if isinstance(item, list):
                    module.items.extend(item)
                else:
                    module.items.append(item)
        self.expect("keyword", "endmodule")
        return module

    def _skip_data_type_prefix(self):
        """Skip the type part of ``parameter int W`` / ``parameter W``."""
        if self.tok.kind == "keyword" and self.tok.text in (
                "int", "integer", "logic", "bit"):
            self.advance()
            if self.check("punct", "["):
                self._parse_packed_range()

    def _at_data_type(self):
        return (self.tok.kind == "keyword"
                and self.tok.text in ("logic", "bit", "wire", "reg", "int",
                                      "integer"))

    def parse_data_type(self, allow_empty=False):
        line = self.tok.line
        base = "logic"
        if self._at_data_type():
            base = self.advance().text
            if base in ("wire", "reg"):
                base = "logic"
        elif not allow_empty and not self.check("punct", "["):
            self.error(f"expected data type, found {self.tok.text!r}")
        signed = False
        if self.accept("keyword", "signed"):
            signed = True
        elif self.accept("keyword", "unsigned"):
            signed = False
        packed = None
        if self.check("punct", "["):
            packed = self._parse_packed_range()
        return ast.DataType(base=base, packed=packed, signed=signed,
                            line=line)

    def _parse_packed_range(self):
        self.expect("punct", "[")
        msb = self.parse_expr()
        self.expect("punct", ":")
        lsb = self.parse_expr()
        self.expect("punct", "]")
        return (msb, lsb)

    def _with_unpacked_dims(self, data_type):
        """Parse trailing unpacked dims ``[N]`` or ``[hi:lo]`` after a name."""
        dims = []
        while self.check("punct", "["):
            self.advance()
            first = self.parse_expr()
            if self.accept("punct", ":"):
                second = self.parse_expr()
                dims.append(("range", first, second))
            else:
                dims.append(("size", first, None))
            self.expect("punct", "]")
        if not dims:
            return data_type
        return ast.DataType(base=data_type.base, packed=data_type.packed,
                            unpacked=dims, signed=data_type.signed,
                            line=data_type.line)

    # -- module items ------------------------------------------------------------------

    def parse_module_item(self):
        tok = self.tok
        if tok.kind == "keyword":
            if tok.text in ("parameter", "localparam"):
                return self._parse_parameter_item()
            if tok.text == "assign":
                return self._parse_continuous_assign()
            if tok.text in ("always", "always_ff", "always_comb",
                            "always_latch", "initial", "final"):
                return self._parse_always()
            if tok.text == "function":
                return self._parse_function()
            if tok.text == "genvar":
                self.advance()
                self.expect("ident")
                self.expect("punct", ";")
                return None
            if tok.text == "generate":
                self.advance()
                items = []
                while not self.check("keyword", "endgenerate"):
                    item = self.parse_module_item()
                    if item is not None:
                        items.append(item)
                self.expect("keyword", "endgenerate")
                return items
            if tok.text == "for":
                return self._parse_generate_for()
            if self._at_data_type():
                return self._parse_net_decls()
        if tok.kind == "ident":
            return self._parse_instantiation()
        self.error(f"unexpected token {tok.text!r} in module body")

    def _parse_parameter_item(self):
        self.advance()  # parameter | localparam
        self._skip_data_type_prefix()
        params = []
        while True:
            name = self.expect("ident").text
            self.expect("punct", "=")
            value = self.parse_expr()
            params.append(ast.Parameter(name=name, default=value,
                                        line=self.tok.line))
            if not self.accept("punct", ","):
                break
        self.expect("punct", ";")
        return params

    def _parse_continuous_assign(self):
        line = self.expect("keyword", "assign").line
        delay = None
        if self.accept("punct", "#"):
            delay = self._parse_delay_value()
        assigns = []
        while True:
            target = self.parse_expr()
            self.expect("punct", "=")
            value = self.parse_expr()
            assigns.append(ast.ContinuousAssign(
                target=target, value=value, delay=delay, line=line))
            if not self.accept("punct", ","):
                break
        self.expect("punct", ";")
        return assigns

    def _parse_delay_value(self):
        if self.tok.kind == "time":
            return ast.TimeLiteral(text=self.advance().text,
                                   line=self.tok.line)
        if self.tok.kind == "number":
            # Bare number: interpreted in the default timescale (1ns).
            text = self.advance().text
            return ast.TimeLiteral(text=f"{text}ns", line=self.tok.line)
        self.error("expected delay value after '#'")

    def _parse_always(self):
        tok = self.advance()
        kind = tok.text
        events = None
        if self.accept("punct", "@"):
            events = self._parse_event_list()
        body = self.parse_statement()
        return ast.AlwaysBlock(kind=kind, events=events, body=body,
                               line=tok.line)

    def _parse_event_list(self):
        if self.accept("punct", "*"):
            return []
        self.expect("punct", "(")
        if self.accept("punct", "*"):
            self.expect("punct", ")")
            return []
        events = []
        while True:
            edge = None
            if self.tok.kind == "keyword" and self.tok.text in (
                    "posedge", "negedge"):
                edge = self.advance().text
            signal = self.parse_expr()
            events.append(ast.EventExpr(edge=edge, signal=signal))
            if not (self.accept("keyword", "or")
                    or self.accept("punct", ",")):
                break
        self.expect("punct", ")")
        return events

    def _parse_function(self):
        line = self.expect("keyword", "function").line
        self.accept("keyword", "automatic")
        return_type = None
        if self.check("keyword", "void"):
            self.advance()
        elif self._at_data_type() or self.check("punct", "["):
            return_type = self.parse_data_type(allow_empty=True)
        name = self.expect("ident").text
        args = []
        if self.accept("punct", "("):
            direction_seen = ast.DataType(base="logic")
            while not self.check("punct", ")"):
                if self.tok.kind == "keyword" and self.tok.text in (
                        "input", "output"):
                    if self.tok.text == "output":
                        self.error("function output arguments are not "
                                   "supported")
                    self.advance()
                if self._at_data_type() or self.check("punct", "["):
                    direction_seen = self.parse_data_type(allow_empty=True)
                arg_name = self.expect("ident").text
                args.append((arg_name, direction_seen))
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ")")
        self.expect("punct", ";")
        body = ast.Block(line=line)
        while not self.check("keyword", "endfunction"):
            body.statements.append(self.parse_statement())
        self.expect("keyword", "endfunction")
        return ast.FunctionDecl(name=name, return_type=return_type,
                                args=args, body=body, line=line)

    def _parse_net_decls(self):
        data_type = self.parse_data_type()
        decls = []
        while True:
            name = self.expect("ident").text
            full_type = self._with_unpacked_dims(data_type)
            init = None
            if self.accept("punct", "="):
                init = self.parse_expr()
            decls.append(ast.NetDecl(name=name, data_type=full_type,
                                     init=init, line=self.tok.line))
            if not self.accept("punct", ","):
                break
        self.expect("punct", ";")
        return decls

    def _parse_instantiation(self):
        line = self.tok.line
        module_name = self.expect("ident").text
        param_overrides = []
        if self.accept("punct", "#"):
            self.expect("punct", "(")
            param_overrides = self._parse_connection_list()
            self.expect("punct", ")")
        instance_name = self.expect("ident").text
        self.expect("punct", "(")
        wildcard = False
        connections = []
        if self.check("punct", ".") and self.peek().text == "*":
            self.advance()
            self.advance()
            wildcard = True
            if self.accept("punct", ","):
                connections = self._parse_connection_list()
        elif not self.check("punct", ")"):
            connections = self._parse_connection_list()
        self.expect("punct", ")")
        self.expect("punct", ";")
        return ast.Instantiation(
            module=module_name, name=instance_name,
            param_overrides=param_overrides, connections=connections,
            wildcard=wildcard, line=line)

    def _parse_connection_list(self):
        connections = []
        while True:
            if self.accept("punct", "."):
                if self.accept("punct", "*"):
                    connections.append(("*", None))
                else:
                    name = self.expect("ident").text
                    self.expect("punct", "(")
                    expr = None
                    if not self.check("punct", ")"):
                        expr = self.parse_expr()
                    self.expect("punct", ")")
                    connections.append((name, expr))
            else:
                connections.append((None, self.parse_expr()))
            if not self.accept("punct", ","):
                break
        return connections

    def _parse_generate_for(self):
        line = self.expect("keyword", "for").line
        self.expect("punct", "(")
        self.accept("keyword", "genvar")
        genvar = self.expect("ident").text
        self.expect("punct", "=")
        init = self.parse_expr()
        self.expect("punct", ";")
        cond = self.parse_expr()
        self.expect("punct", ";")
        step = self._parse_for_step(genvar)
        self.expect("punct", ")")
        label = ""
        items = []
        if self.accept("keyword", "begin"):
            if self.accept("punct", ":"):
                label = self.expect("ident").text
            while not self.check("keyword", "end"):
                item = self.parse_module_item()
                if item is not None:
                    if isinstance(item, list):
                        items.extend(item)
                    else:
                        items.append(item)
            self.expect("keyword", "end")
        else:
            items.append(self.parse_module_item())
        return ast.GenerateFor(genvar=genvar, init=init, cond=cond,
                               step=step, items=items, label=label,
                               line=line)

    def _parse_for_step(self, _genvar):
        expr = self.parse_expr()
        if isinstance(expr, ast.PostIncrement):
            return expr
        if self.accept("punct", "="):
            value = self.parse_expr()
            return ast.Assign(target=expr, value=value, blocking=True,
                              line=self.tok.line)
        if self.tok.text in _COMPOUND_ASSIGN:
            op = self.advance().text
            value = self.parse_expr()
            return ast.Assign(target=expr, value=value, blocking=True,
                              op=op[:-1], line=self.tok.line)
        return ast.ExprStmt(expr=expr, line=self.tok.line)

    # -- statements -----------------------------------------------------------------------

    def parse_statement(self):
        tok = self.tok
        if tok.kind == "keyword":
            if tok.text == "begin":
                return self._parse_begin_end()
            if tok.text == "if":
                return self._parse_if()
            if tok.text in ("case", "casez"):
                return self._parse_case()
            if tok.text == "for":
                return self._parse_for_statement()
            if tok.text == "while":
                return self._parse_while()
            if tok.text == "do":
                return self._parse_do_while()
            if tok.text == "return":
                self.advance()
                value = None
                if not self.check("punct", ";"):
                    value = self.parse_expr()
                self.expect("punct", ";")
                return ast.ReturnStmt(value=value, line=tok.line)
            if tok.text == "assert":
                return self._parse_assert()
            if tok.text == "automatic" or self._at_data_type():
                return self._parse_local_var()
        if tok.kind == "punct" and tok.text == "#":
            self.advance()
            amount = self._parse_delay_value()
            if self.accept("punct", ";"):
                return ast.Delay(amount=amount, line=tok.line)
            # "#1ns x = e" — delayed statement prefix (delay, then assign)
            stmt = self.parse_statement()
            block = ast.Block(line=tok.line)
            block.statements = [ast.Delay(amount=amount, line=tok.line),
                                stmt]
            return block
        if tok.kind == "punct" and tok.text == "@":
            self.advance()
            events = self._parse_event_list()
            self.expect("punct", ";")
            return ast.EventWait(events=events, line=tok.line)
        if tok.kind == "punct" and tok.text == ";":
            self.advance()
            return ast.Block(line=tok.line)
        return self._parse_assign_or_expr_statement()

    def _parse_begin_end(self):
        line = self.expect("keyword", "begin").line
        if self.accept("punct", ":"):
            self.expect("ident")
        block = ast.Block(line=line)
        while not self.check("keyword", "end"):
            block.statements.append(self.parse_statement())
        self.expect("keyword", "end")
        if self.accept("punct", ":"):
            self.expect("ident")
        return block

    def _parse_if(self):
        line = self.expect("keyword", "if").line
        self.expect("punct", "(")
        cond = self.parse_expr()
        self.expect("punct", ")")
        then_body = self.parse_statement()
        else_body = None
        if self.accept("keyword", "else"):
            else_body = self.parse_statement()
        return ast.If(cond=cond, then_body=then_body, else_body=else_body,
                      line=line)

    def _parse_case(self):
        tok = self.advance()
        wildcard = tok.text == "casez"
        self.expect("punct", "(")
        subject = self.parse_expr()
        self.expect("punct", ")")
        items = []
        while not self.check("keyword", "endcase"):
            if self.accept("keyword", "default"):
                self.accept("punct", ":")
                items.append((None, self.parse_statement()))
            else:
                labels = [self.parse_expr()]
                while self.accept("punct", ","):
                    labels.append(self.parse_expr())
                self.expect("punct", ":")
                items.append((labels, self.parse_statement()))
        self.expect("keyword", "endcase")
        return ast.Case(subject=subject, items=items, wildcard=wildcard,
                        line=tok.line)

    def _parse_for_statement(self):
        line = self.expect("keyword", "for").line
        self.expect("punct", "(")
        init = None
        if not self.check("punct", ";"):
            if self._at_data_type() or self.check("keyword", "automatic"):
                init = self._parse_local_var(consume_semicolon=False)
            else:
                init = self._parse_assignment(consume_semicolon=False)
        self.expect("punct", ";")
        cond = None
        if not self.check("punct", ";"):
            cond = self.parse_expr()
        self.expect("punct", ";")
        step = None
        if not self.check("punct", ")"):
            step = self._parse_for_step(None)
        self.expect("punct", ")")
        body = self.parse_statement()
        return ast.For(init=init, cond=cond, step=step, body=body,
                       line=line)

    def _parse_while(self):
        line = self.expect("keyword", "while").line
        self.expect("punct", "(")
        cond = self.parse_expr()
        self.expect("punct", ")")
        body = self.parse_statement()
        return ast.While(cond=cond, body=body, line=line)

    def _parse_do_while(self):
        line = self.expect("keyword", "do").line
        body = self.parse_statement()
        self.expect("keyword", "while")
        self.expect("punct", "(")
        cond = self.parse_expr()
        self.expect("punct", ")")
        self.expect("punct", ";")
        return ast.DoWhile(body=body, cond=cond, line=line)

    def _parse_assert(self):
        line = self.expect("keyword", "assert").line
        self.expect("punct", "(")
        cond = self.parse_expr()
        self.expect("punct", ")")
        message = None
        if self.accept("keyword", "else"):
            # `assert(...) else $error("...")` — keep the message.
            expr = self.parse_expr()
            if isinstance(expr, ast.SystemCall) and expr.args:
                message = expr.args[0]
        self.expect("punct", ";")
        return ast.AssertStmt(cond=cond, message=message, line=line)

    def _parse_local_var(self, consume_semicolon=True):
        automatic = bool(self.accept("keyword", "automatic"))
        data_type = self.parse_data_type()
        stmts = []
        while True:
            name = self.expect("ident").text
            full_type = self._with_unpacked_dims(data_type)
            init = None
            if self.accept("punct", "="):
                init = self.parse_expr()
            stmts.append(ast.VarDecl(name=name, data_type=full_type,
                                     init=init, automatic=automatic,
                                     line=self.tok.line))
            if not self.accept("punct", ","):
                break
        if consume_semicolon:
            self.expect("punct", ";")
        if len(stmts) == 1:
            return stmts[0]
        block = ast.Block(line=stmts[0].line)
        block.statements = stmts
        return block

    def _parse_assign_or_expr_statement(self):
        stmt = self._parse_assignment(consume_semicolon=True)
        return stmt

    def _parse_assignment(self, consume_semicolon):
        line = self.tok.line
        # Parse the target as a postfix expression only: parsing a full
        # expression would swallow `<=` of a nonblocking assignment as a
        # less-or-equal comparison.
        target = self._parse_postfix()
        if isinstance(target, ast.PostIncrement):
            if consume_semicolon:
                self.expect("punct", ";")
            return ast.ExprStmt(expr=target, line=line)
        if isinstance(target, (ast.SystemCall, ast.FunctionCall)):
            if consume_semicolon:
                self.expect("punct", ";")
            return ast.ExprStmt(expr=target, line=line)
        if self.tok.text in _COMPOUND_ASSIGN:
            op = self.advance().text
            value = self.parse_expr()
            if consume_semicolon:
                self.expect("punct", ";")
            return ast.Assign(target=target, value=value, blocking=True,
                              op=op[:-1], line=line)
        blocking = True
        if self.accept("punct", "="):
            blocking = True
        elif self.accept("punct", "<="):
            blocking = False
        else:
            self.error(f"expected assignment, found {self.tok.text!r}")
        delay = None
        if self.accept("punct", "#"):
            delay = self._parse_delay_value()
        value = self.parse_expr()
        if consume_semicolon:
            self.expect("punct", ";")
        return ast.Assign(target=target, value=value, blocking=blocking,
                          delay=delay, line=line)

    # -- expressions ---------------------------------------------------------------------

    def parse_expr(self):
        return self._parse_ternary()

    def _parse_ternary(self):
        cond = self._parse_binary(0)
        if self.accept("punct", "?"):
            if_true = self.parse_expr()
            self.expect("punct", ":")
            if_false = self.parse_expr()
            return ast.Ternary(cond=cond, if_true=if_true,
                               if_false=if_false, line=self.tok.line)
        return cond

    def _parse_binary(self, min_precedence):
        lhs = self._parse_unary()
        while True:
            op = self.tok.text
            # `<=` in expression position is less-or-equal only when it
            # cannot start a nonblocking assignment — the statement parser
            # disambiguates by context; here it's always a comparison.
            precedence = _BINARY_PRECEDENCE.get(op)
            if self.tok.kind != "punct" or precedence is None \
                    or precedence < min_precedence:
                return lhs
            self.advance()
            rhs = self._parse_binary(precedence + 1)
            lhs = ast.Binary(op=op, lhs=lhs, rhs=rhs, line=self.tok.line)

    def _parse_unary(self):
        tok = self.tok
        if tok.kind == "punct" and tok.text in ("!", "~", "-", "+", "&",
                                                "|", "^"):
            self.advance()
            operand = self._parse_unary()
            if tok.text == "+":
                return operand
            return ast.Unary(op=tok.text, operand=operand, line=tok.line)
        return self._parse_postfix()

    def _parse_postfix(self):
        expr = self._parse_primary()
        while True:
            if self.check("punct", "["):
                self.advance()
                first = self.parse_expr()
                if self.accept("punct", ":"):
                    second = self.parse_expr()
                    self.expect("punct", "]")
                    expr = ast.PartSelect(base=expr, msb=first, lsb=second,
                                          line=self.tok.line)
                else:
                    self.expect("punct", "]")
                    expr = ast.Index(base=expr, index=first,
                                     line=self.tok.line)
            elif self.check("punct", "++") or self.check("punct", "--"):
                op = self.advance().text
                expr = ast.PostIncrement(target=expr, op=op,
                                         line=self.tok.line)
            else:
                return expr

    def _parse_primary(self):
        tok = self.tok
        if tok.kind == "number":
            self.advance()
            return ast.Number(value=int(tok.text.replace("_", "")),
                              width=None, line=tok.line)
        if tok.kind == "based":
            self.advance()
            width, value, has_xz = parse_based_literal(tok.text, tok.line)
            return ast.Number(value=value, width=width, has_xz=has_xz,
                              line=tok.line)
        if tok.kind == "unbased":
            self.advance()
            return ast.UnbasedUnsized(fill=tok.text[1].lower(),
                                      line=tok.line)
        if tok.kind == "time":
            self.advance()
            return ast.TimeLiteral(text=tok.text, line=tok.line)
        if tok.kind == "string":
            self.advance()
            return ast.StringLiteral(value=tok.text[1:-1], line=tok.line)
        if tok.kind == "system":
            self.advance()
            args = []
            if self.accept("punct", "("):
                while not self.check("punct", ")"):
                    args.append(self.parse_expr())
                    if not self.accept("punct", ","):
                        break
                self.expect("punct", ")")
            return ast.SystemCall(name=tok.text, args=args, line=tok.line)
        if tok.kind == "ident":
            self.advance()
            if self.check("punct", "("):
                self.advance()
                args = []
                while not self.check("punct", ")"):
                    args.append(self.parse_expr())
                    if not self.accept("punct", ","):
                        break
                self.expect("punct", ")")
                return ast.FunctionCall(name=tok.text, args=args,
                                        line=tok.line)
            return ast.Identifier(name=tok.text, line=tok.line)
        if tok.kind == "punct" and tok.text == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect("punct", ")")
            return expr
        if tok.kind == "punct" and tok.text == "{":
            return self._parse_concat()
        self.error(f"unexpected token {tok.text!r} in expression")

    def _parse_concat(self):
        line = self.expect("punct", "{").line
        first = self.parse_expr()
        if self.check("punct", "{"):
            # Replication: {N{value}}
            self.advance()
            value = self.parse_expr()
            self.expect("punct", "}")
            self.expect("punct", "}")
            return ast.Replicate(count=first, value=value, line=line)
        parts = [first]
        while self.accept("punct", ","):
            parts.append(self.parse_expr())
        self.expect("punct", "}")
        return ast.Concat(parts=parts, line=line)


def parse_source(text):
    """Parse SystemVerilog source text into an AST."""
    return Parser(text).parse_source()
