type family = Feasibility | Determinism | Robustness | Perf

type severity = Error | Warning

type t = {
  id : string;  (* stable short id, e.g. "DF001" *)
  name : string;  (* kebab-case name usable in suppression comments *)
  family : family;
  severity : severity;
  doc : string;
}

let family_to_string = function
  | Feasibility -> "feasibility"
  | Determinism -> "determinism"
  | Robustness -> "robustness"
  | Perf -> "perf"

let severity_to_string = function Error -> "error" | Warning -> "warning"

let df_list =
  {
    id = "DF001";
    name = "df-list";
    family = Feasibility;
    severity = Error;
    doc =
      "List operation in per-packet dataplane code: linked lists are unbounded and need pointer \
       chasing; Tofino per-packet state is fixed-size registers (paper 3.3)";
  }

let df_while =
  {
    id = "DF002";
    name = "df-while";
    family = Feasibility;
    severity = Error;
    doc =
      "while loop in per-packet dataplane code: every dataplane operation must be constant-time \
       (one pipeline pass per packet)";
  }

let df_rec =
  {
    id = "DF003";
    name = "df-rec";
    family = Feasibility;
    severity = Error;
    doc =
      "recursion in per-packet dataplane code: unbounded call depth has no Tofino equivalent; \
       unroll to a bounded loop or move off the packet path";
  }

let df_float =
  {
    id = "DF004";
    name = "df-float";
    family = Feasibility;
    severity = Error;
    doc =
      "float arithmetic in per-packet dataplane code: switch ALUs are integer-only; precompute a \
       lookup table at control-plane time (like Threshold.table)";
  }

let df_io =
  {
    id = "DF005";
    name = "df-io";
    family = Feasibility;
    severity = Warning;
    doc =
      "I/O or string formatting in per-packet dataplane code: allocation and side channels do not \
       exist on the packet path; use counters and the tracer instead";
  }

let det_random =
  {
    id = "DT001";
    name = "det-random";
    family = Determinism;
    severity = Error;
    doc =
      "Stdlib Random in lib/: its global state breaks reproducible replay; draw from a seeded \
       Bfc_util.Rng stream instead";
  }

let det_wallclock =
  {
    id = "DT002";
    name = "det-wallclock";
    family = Determinism;
    severity = Error;
    doc =
      "wall-clock reading in lib/: simulated time must come from Engine.Time/Sim.now; real time \
       only via Bfc_util.Clock (progress reporting)";
  }

let det_unix =
  {
    id = "DT003";
    name = "det-unix";
    family = Determinism;
    severity = Warning;
    doc =
      "direct Unix call in lib/: ambient OS state is nondeterministic; go through the \
       Bfc_util.Clock/Bfc_util.Fs wrappers";
  }

let det_hashtbl_order =
  {
    id = "DT004";
    name = "det-hashtbl-order";
    family = Determinism;
    severity = Warning;
    doc =
      "Hashtbl.iter/fold whose result is not piped through a deterministic sort: iteration order \
       depends on the hash seed; sort by key before the result feeds output or scheduling";
  }

let rob_catchall =
  {
    id = "RB001";
    name = "rob-catchall";
    family = Robustness;
    severity = Error;
    doc =
      "catch-all `try ... with _ ->` swallows structured errors (Sim.Runaway, Port.Busy, \
       Packet.Missing_flow); match the specific exceptions";
  }

let rob_assert_false =
  {
    id = "RB002";
    name = "rob-assert-false";
    family = Robustness;
    severity = Error;
    doc =
      "bare `assert false` on a packet path: raise a structured exception carrying packet id and \
       sim time (e.g. Packet.Missing_flow) so failures are diagnosable";
  }

let rob_hook_write =
  {
    id = "RB003";
    name = "rob-hook-write";
    family = Robustness;
    severity = Error;
    doc =
      "write to a Switch.hooks field outside the switch program modules (Dataplane, \
       Credit_dataplane, Xpass_switch), or to Node.handler outside Switch.create/Host.create: \
       observers register on the sim's Bfc_engine.Tap instead of chaining closures";
  }

let pf_closure_timer =
  {
    id = "PF001";
    name = "pf-closure-timer";
    family = Perf;
    severity = Error;
    doc =
      "Sim.at/Sim.after with a closure literal on a hot scheduling path: each arm allocates a \
       fresh closure; post a typed event (Sim.post with a class id)";
  }

let pf_stdlib_queue =
  {
    id = "PF002";
    name = "pf-stdlib-queue";
    family = Perf;
    severity = Error;
    doc =
      "Stdlib Queue/Stack on a hot path: every push allocates a list cell (3 words) that a \
       backlogged queue promotes to the major heap; use a growable array ring (like \
       Bfc_switch.Fifo) that allocates only when it grows";
  }

let pf_poly_compare =
  {
    id = "PF003";
    name = "pf-poly-compare";
    family = Perf;
    severity = Error;
    doc =
      "polymorphic compare/max/min on a hot path: without flambda they are calls into the \
       runtime's generic comparison (caml_compare, caml_greaterequal) even on ints; use the \
       monomorphic Int.compare/Int.max/Int.min (or Float.*)";
  }

let all =
  [
    df_list;
    df_while;
    df_rec;
    df_float;
    df_io;
    det_random;
    det_wallclock;
    det_unix;
    det_hashtbl_order;
    rob_catchall;
    rob_assert_false;
    rob_hook_write;
    pf_closure_timer;
    pf_stdlib_queue;
    pf_poly_compare;
  ]

let find key =
  let k = String.lowercase_ascii key in
  List.find_opt (fun r -> String.lowercase_ascii r.id = k || r.name = k) all

(* [matches r key] — does suppression token [key] cover rule [r]?  Accepts the
   rule id (case-insensitive), the kebab name, or "all". *)
let matches r key =
  let k = String.lowercase_ascii key in
  k = "all" || k = String.lowercase_ascii r.id || k = r.name
