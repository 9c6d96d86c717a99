"""CLI coverage for the declarative flow surface (`script`, `opt --json`)."""

import json

import pytest

from repro.cli import main

SOURCE = """
module demo(input [1:0] s, input [7:0] a, b, output reg [7:0] y);
  always @* begin
    case (s)
      2'b00: y = a;
      2'b01: y = b;
      2'b10: y = a;
      default: y = b;
    endcase
  end
endmodule
"""


@pytest.fixture
def verilog(tmp_path):
    path = tmp_path / "demo.v"
    path.write_text(SOURCE)
    return str(path)


def test_script_subcommand_runs_flow(verilog, capsys):
    rc = main(["script", "opt_expr; smartly k=6; opt_clean", verilog,
               "--check"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "demo: original AIG area" in out
    assert "equivalence check: PASSED" in out


def test_script_subcommand_json_report(verilog, capsys):
    rc = main(["script", "fixpoint; opt_expr; opt_merge; opt_clean", verilog,
               "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case_name"] == "demo"
    assert report["flow_script"].startswith("fixpoint max_rounds=16")
    assert report["original_area"] >= report["optimized_area"]


def test_script_subcommand_rejects_unknown_pass(verilog, capsys):
    rc = main(["script", "opt_expr; nonsense", verilog])
    assert rc == 2
    assert "unknown pass 'nonsense'" in capsys.readouterr().err


def test_script_subcommand_rejects_unknown_option(verilog, capsys):
    rc = main(["script", "opt_expr; smartly bogus_knob=false", verilog])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'bogus_knob'" in err
    assert "Traceback" not in err


def test_script_subcommand_rejects_empty_script(verilog, capsys):
    rc = main(["script", "  ", verilog])
    assert rc == 2
    assert "empty flow script" in capsys.readouterr().err


def test_opt_subcommand_json(verilog, capsys):
    rc = main(["opt", verilog, "--optimizer", "yosys", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flow"] == "yosys"


def test_opt_verbose_streams_pass_events(verilog, capsys):
    rc = main(["opt", verilog, "-v"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "[smartly]" in err
