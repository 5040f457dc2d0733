(* Work-stealing domain pool for experiment sweeps.

   Tasks are independent thunks (each builds its own [Sim.t] from scratch),
   so the only sharing between domains is the task/result arrays and the
   per-worker cursors. Distribution is strided: worker [w] owns task
   indices [w, w + jobs, w + 2*jobs, ...] behind an atomic cursor; a worker
   that drains its own queue steals from the other queues through the same
   fetch-and-add, so every index is handed out exactly once no matter who
   takes it. Results are merged by task index and errors re-raised in task
   order, which keeps output deterministic at any job count. *)

(* Ambient job count used by [run] when no [?jobs] is given. Set for the
   duration of one target by [Experiments.run] (`bfc_sim run/stress
   --jobs`); sweeps deep inside experiment code pick it up without
   threading a parameter through every figure. *)
let ambient = Atomic.make 1

let set_default_jobs j =
  if j < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  Atomic.set ambient j

let default_jobs () = Atomic.get ambient

exception Task_error of { index : int; exn : exn; backtrace : string }

let () =
  Printexc.register_printer (function
    | Task_error { index; exn; backtrace } ->
      Some
        (Printf.sprintf "Pool.Task_error (task %d raised %s)\n%s" index (Printexc.to_string exn)
           backtrace)
    | _ -> None)

let run ?jobs tasks =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let jobs = max 1 (min n (match jobs with Some j -> j | None -> default_jobs ())) in
  let results = Array.make n None in
  let errors = Array.make n None in
  let exec i =
    try results.(i) <- Some (tasks.(i) ())
    with exn ->
      let backtrace = Printexc.get_backtrace () in
      errors.(i) <- Some (Task_error { index = i; exn; backtrace })
  in
  if jobs <= 1 then
    for i = 0 to n - 1 do
      exec i
    done
  else begin
    (* queue [w] = indices w, w+jobs, ...; cursor counts handed-out slots *)
    let cursors = Array.init jobs (fun _ -> Atomic.make 0) in
    let qlen w = (n - w + jobs - 1) / jobs in
    let drain_queue w =
      let continue = ref true in
      while !continue do
        let k = Atomic.fetch_and_add cursors.(w) 1 in
        if k < qlen w then exec (w + (k * jobs)) else continue := false
      done
    in
    let worker w =
      drain_queue w;
      for v = 1 to jobs - 1 do
        drain_queue ((w + v) mod jobs)
      done
    in
    let domains = Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1))) in
    worker 0;
    Array.iter Domain.join domains
  end;
  (* first failure in task order wins, independent of execution order *)
  Array.iter (function Some e -> raise e | None -> ()) errors;
  (* a None slot is impossible here: every index was executed and any
     failure was re-raised above *)
  (* bfc-lint: allow rob-assert-false *)
  Array.to_list (Array.map (function Some r -> r | None -> assert false) results)
