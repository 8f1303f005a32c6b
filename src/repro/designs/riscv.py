"""RISC-V core — Table 2's largest design (3479 LoC SV in the paper).

A single-cycle RV32I-subset core: fetch from a word-addressed instruction
memory, decode, register file, ALU, branches/jumps, and a word-addressed
data memory.  The paper uses an industrial RISC-V core (Snitch); this
core plays the same role as the largest, most control-heavy design in the
suite (README, "Substitutions", item 4).

The testbench loads a program assembled by :mod:`repro.designs.riscv_asm`
(iterative Fibonacci plus a memory checksum loop), runs it to completion
(detected by a store to the magic I/O address), and asserts the results
in data memory.
"""

from . import riscv_asm

NAME = "riscv"
PAPER_NAME = "RISC-V Core"
PAPER_LOC = 3479
PAPER_CYCLES = 1_000_000
TOP = "riscv_tb"

# Iterative Fibonacci: fib(N) into dmem[0], checksum of dmem[0..4] into
# dmem[5], then signal completion by storing 1 to dmem[63].
PROGRAM = """
start:
    li   t0, {n}          # counter
    li   t1, 0            # fib(0)
    li   t2, 1            # fib(1)
loop:
    beq  t0, zero, store
    add  t3, t1, t2
    mv   t1, t2
    mv   t2, t3
    addi t0, t0, -1
    j    loop
store:
    sw   t1, 0(zero)      # dmem[0] = fib(n)
    addi t4, zero, 10
    sw   t4, 4(zero)      # dmem[1] = 10
    slli t5, t4, 2
    sw   t5, 8(zero)      # dmem[2] = 40
    xor  t6, t4, t5
    sw   t6, 12(zero)     # dmem[3] = 34
    sltu s0, t4, t5
    sw   s0, 16(zero)     # dmem[4] = 1
checksum:
    li   s1, 0            # sum
    li   s2, 0            # offset
    li   s3, 20           # limit (5 words)
csloop:
    beq  s2, s3, csdone
    lw   s4, 0(s2)
    add  s1, s1, s4
    addi s2, s2, 4
    j    csloop
csdone:
    sw   s1, 20(zero)     # dmem[5] = checksum
done:
    li   s5, 1
    sw   s5, 252(zero)    # dmem[63] = 1 -> testbench halts
halt:
    j    halt
"""


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def expected_results(n):
    """(dmem[0..5]) the program must produce."""
    values = [fib(n), 10, 40, 34, 1]
    return values + [sum(values)]


def program_words(n=10):
    return riscv_asm.assemble(PROGRAM.format(n=n))


def source(cycles=400, n=None):
    if n is None:
        # Scale the fib iteration count with the cycle budget so the
        # core stays busy for the whole run (the loop costs ~6 cycles
        # per iteration plus ~110 cycles of fixed prologue/checksum);
        # fib(47) is the largest value that fits 32 bits, which the
        # testbench's expected results assume.
        n = min(47, max(5, (cycles - 120) // 8))
    words = program_words(n)
    imem_init = "\n".join(
        f"      imem[{i}] = 32'h{w:08x};" for i, w in enumerate(words))
    expected = expected_results(n)
    return """
module riscv_core (input clk, input rst,
                   input logic [31:0] instr,
                   output logic [31:0] pc,
                   output logic [31:0] dmem_addr,
                   output logic [31:0] dmem_wdata,
                   output logic dmem_we,
                   input logic [31:0] dmem_rdata);
  logic [31:0] regs [32];
  logic [31:0] rs1_val, rs2_val, imm_i, imm_s, imm_b, imm_j, imm_u;
  logic [31:0] alu_a, alu_b, alu_out, next_pc, wb_value;
  logic [6:0] opcode;
  logic [4:0] rd, rs1, rs2;
  logic [2:0] funct3;
  logic [6:0] funct7;
  logic wb_en, take_branch;

  always_comb begin
    opcode = instr[6:0];
    rd = instr[11:7];
    funct3 = instr[14:12];
    rs1 = instr[19:15];
    rs2 = instr[24:20];
    funct7 = instr[31:25];
    imm_i = {{20{instr[31]}}, instr[31:20]};
    imm_s = {{20{instr[31]}}, instr[31:25], instr[11:7]};
    imm_b = {{19{instr[31]}}, instr[31], instr[7], instr[30:25],
             instr[11:8], 1'b0};
    imm_j = {{11{instr[31]}}, instr[31], instr[19:12], instr[20],
             instr[30:21], 1'b0};
    imm_u = {instr[31:12], 12'd0};

    rs1_val = (rs1 == 5'd0) ? 32'd0 : regs[rs1];
    rs2_val = (rs2 == 5'd0) ? 32'd0 : regs[rs2];

    alu_a = rs1_val;
    alu_b = (opcode == 7'b0110011 || opcode == 7'b1100011)
            ? rs2_val : imm_i;

    alu_out = 32'd0;
    case (funct3)
      3'b000: begin
        if (opcode == 7'b0110011 && funct7 == 7'b0100000)
          alu_out = alu_a - alu_b;
        else
          alu_out = alu_a + alu_b;
      end
      3'b001: alu_out = alu_a << alu_b[4:0];
      3'b010: alu_out = ($signed(alu_a) < $signed(alu_b)) ? 32'd1 : 32'd0;
      3'b011: alu_out = (alu_a < alu_b) ? 32'd1 : 32'd0;
      3'b100: alu_out = alu_a ^ alu_b;
      3'b101: alu_out = alu_a >> alu_b[4:0];
      3'b110: alu_out = alu_a | alu_b;
      3'b111: alu_out = alu_a & alu_b;
    endcase

    take_branch = 1'b0;
    case (funct3)
      3'b000: take_branch = (rs1_val == rs2_val);
      3'b001: take_branch = (rs1_val != rs2_val);
      3'b100: take_branch = ($signed(rs1_val) < $signed(rs2_val));
      3'b101: take_branch = !($signed(rs1_val) < $signed(rs2_val));
      3'b110: take_branch = (rs1_val < rs2_val);
      3'b111: take_branch = !(rs1_val < rs2_val);
      default: take_branch = 1'b0;
    endcase

    dmem_addr = 32'd0;
    dmem_wdata = 32'd0;
    dmem_we = 1'b0;
    wb_en = 1'b0;
    wb_value = 32'd0;
    next_pc = pc + 32'd4;

    case (opcode)
      7'b0110011: begin wb_en = 1'b1; wb_value = alu_out; end
      7'b0010011: begin wb_en = 1'b1; wb_value = alu_out; end
      7'b0110111: begin wb_en = 1'b1; wb_value = imm_u; end
      7'b0000011: begin
        dmem_addr = rs1_val + imm_i;
        wb_en = 1'b1;
        wb_value = dmem_rdata;
      end
      7'b0100011: begin
        dmem_addr = rs1_val + imm_s;
        dmem_wdata = rs2_val;
        dmem_we = 1'b1;
      end
      7'b1100011: begin
        if (take_branch)
          next_pc = pc + imm_b;
      end
      7'b1101111: begin
        wb_en = 1'b1;
        wb_value = pc + 32'd4;
        next_pc = pc + imm_j;
      end
      7'b1100111: begin
        wb_en = 1'b1;
        wb_value = pc + 32'd4;
        next_pc = (rs1_val + imm_i) & 32'hFFFFFFFE;
      end
      default: begin end
    endcase
  end

  always_ff @(posedge clk) begin
    if (rst) begin
      pc <= 32'd0;
    end else begin
      pc <= next_pc;
      if (wb_en && (rd != 5'd0))
        regs[rd] <= wb_value;
    end
  end
endmodule

module riscv_tb;
  logic clk, rst;
  logic [31:0] pc, instr, dmem_addr, dmem_wdata, dmem_rdata;
  logic dmem_we;
  logic [31:0] imem [64];
  logic [31:0] dmem [64];

  riscv_core core (.clk(clk), .rst(rst), .instr(instr), .pc(pc),
                   .dmem_addr(dmem_addr), .dmem_wdata(dmem_wdata),
                   .dmem_we(dmem_we), .dmem_rdata(dmem_rdata));

  assign instr = imem[pc[7:2]];
  assign dmem_rdata = dmem[dmem_addr[7:2]];

  always_ff @(posedge clk) begin
    if (dmem_we)
      dmem[dmem_addr[7:2]] <= dmem_wdata;
  end

  initial begin
    automatic int i = 0;
IMEM_INIT
    rst = 1;
    #1ns; clk = 1; #1ns; clk = 0;
    rst = 0;
    while (i < CYCLES) begin
      #1ns; clk = 1;
      #1ns; clk = 0;
      i++;
    end
    #1ns;
    assert (dmem[63] == 32'd1);
    assert (dmem[0] == 32'dEXP0);
    assert (dmem[1] == 32'd10);
    assert (dmem[2] == 32'd40);
    assert (dmem[3] == 32'd34);
    assert (dmem[4] == 32'd1);
    assert (dmem[5] == 32'dEXP5);
    $finish;
  end
endmodule
""".replace("IMEM_INIT", imem_init) \
   .replace("CYCLES", str(cycles)) \
   .replace("EXP0", str(expected[0])) \
   .replace("EXP5", str(expected[5]))
