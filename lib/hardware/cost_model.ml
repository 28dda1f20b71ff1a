type t = {
  c : float;
  p : float;
  hop_delay : unit -> float;
  sys_delay : unit -> float;
}

let deterministic ~c ~p =
  if c < 0.0 || p < 0.0 then
    invalid_arg "Cost_model.deterministic: negative bound";
  { c; p; hop_delay = (fun () -> c); sys_delay = (fun () -> p) }

let uniform_random rng ~c ~p =
  if c < 0.0 || p < 0.0 then
    invalid_arg "Cost_model.uniform_random: negative bound";
  let draw bound () =
    if bound = 0.0 then 0.0 else bound -. Sim.Rng.float rng bound
  in
  { c; p; hop_delay = draw c; sys_delay = draw p }

let new_model () = deterministic ~c:0.0 ~p:1.0
let traditional () = deterministic ~c:1.0 ~p:0.0
