(* Graceful drain for long-lived processes.

   A drain is two latches. The soft latch ("stop taking new work,
   finish what you have") is what SIGTERM requests the first time; the
   hard latch ("also stop the work in flight, cooperatively") is the
   escalation a second signal requests — it is the drain's cancel
   token, so every job guard linked to that token trips at its
   next polling point and the job degrades to the documented
   incomplete semantics instead of being killed mid-write.

   Signal handlers only flip atomics and mark the token (both
   async-signal-safe in OCaml: no locks, no allocation beyond the
   closure); the process's threads observe the latches at their own
   polling points — the accept loop, the scheduler, the executor. *)

type t = {
  soft : bool Atomic.t;
  cancel : Cancel.t;  (* marked on hard drain; link job guards to it *)
}

let create () = { soft = Atomic.make false; cancel = Cancel.create () }

let request t = Atomic.set t.soft true
let requested t = Atomic.get t.soft

let request_hard t =
  Atomic.set t.soft true;
  Cancel.request t.cancel (Cancel.Signal "drain")

let cancel t = t.cancel

let install_signals ?(signals = [ Sys.sigterm; Sys.sigint ]) t =
  let handle =
    Sys.Signal_handle
      (fun _ -> if requested t then request_hard t else request t)
  in
  List.iter
    (fun s -> try Sys.set_signal s handle with Invalid_argument _ -> ())
    signals
