(* The four workloads. Each is one program driven in a closed loop: one
   iteration in flight, the next starts when the previous returns. An
   episode is a fresh VM, the workload's setup, and [iterations] calls
   of its iteration body; a run repeats episodes until its time is up.
   Why each workload is here is in README.md. *)

open Lp_core

type t = {
  name : string;
  workload : seed:int -> Lp_workloads.Workload.t;
  config : Config.t;
  iterations : int;  (** iteration-body calls per episode *)
  seeded : bool;  (** whether [--seed] reaches the program *)
  seq_reference : bool;
      (** the reclamation digest must equal a [Sequential] episode's on
          the same input and length *)
}

let mysql ~seed:_ = Lp_workloads.Mysql_leak.workload

let jython ~seed =
  match Lp_workloads.Dacapo.find "jython" with
  | Some spec -> Lp_workloads.Dacapo.workload_of_spec { spec with seed }
  | None -> invalid_arg "jython spec missing from the DaCapo suite"

let all =
  [
    {
      name = "mysql-seq";
      workload = mysql;
      config = Config.make ();
      iterations = 1_000;
      seeded = false;
      seq_reference = false;
    };
    {
      name = "mysql-par2";
      workload = mysql;
      config = Config.make ~gc_engine:(Config.Parallel 2) ~gc_steal:true ();
      iterations = 1_000;
      seeded = false;
      seq_reference = true;
    };
    {
      name = "eclipse-slo";
      workload = (fun ~seed:_ -> Lp_workloads.Eclipse_diff.workload);
      config = Config.make ~pause_slo_p99_ns:100_000 ();
      iterations = 2_000;
      seeded = false;
      seq_reference = true;
    };
    {
      name = "jython-steady";
      workload = jython;
      config = Config.make ();
      iterations = 10_000;
      seeded = true;
      seq_reference = false;
    };
  ]

let find name = List.find_opt (fun c -> c.name = name) all

(* The same input and length on the sequential engine, autopilot off. *)
let sequential c = { c with config = Config.make () }
