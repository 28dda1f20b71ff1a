(* Registry of the experiment harness: maps experiment ids to runners.
   See DESIGN.md section 3 for the paper-claim <-> experiment map. *)

let all : (string * string * (unit -> unit)) list =
  [
    ("e1", "broadcast cost: flooding vs branching paths vs baselines", E1_broadcast.run);
    ("e2", "Theorem 2: tree labels below log2 n", E2_labels.run);
    ("e3", "Theorem 3: one-way broadcast lower bound", E3_lower_bound.run);
    ("e4", "Section 3 example: depth-first deadlock", E4_deadlock.run);
    ("e5", "Theorem 1: eventual consistency and convergence speed", E5_consistency.run);
    ("e6", "Theorem 5: election in <= 6n system calls", E6_election.run);
    ("e7", "Section 5 examples: S(k) closed forms", E7_s_of_t.run);
    ("e8", "Section 5: optimal trees across C/P", E8_optimal_trees.run);
    ("e9", "Section 5 + appendix: convergecast and causal trees", E9_convergecast.run);
    ("a1", "ablation: the PARIS multicast primitive", Ablations.run_a1);
    ("a2", "ablation: header lengths and the dmax restriction", Ablations.run_a2);
    ("a3", "ablation: the minimum-hop tree choice under failures", Ablations.run_a3);
    ("a4", "extension: general graphs vs the complete-graph optimum", Ablations.run_a4);
    ("a5", "ablation: what each cost model can and cannot distinguish", A5_model_ranking.run);
  ]

let find id =
  List.find_opt (fun (name, _, _) -> name = id) all

let run_all () =
  List.iter
    (fun (id, description, run) ->
      Printf.printf "\n###### %s - %s ######\n" (String.uppercase_ascii id)
        description;
      run ())
    all

module Scaling = Scaling

let figures = Figures.run
let timeline = Timeline.run

let set_jobs = Exp_pool.set_jobs
let jobs = Exp_pool.jobs
