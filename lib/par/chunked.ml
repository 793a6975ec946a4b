(* One buffer per chunk of a block, reused across blocks and rounds. A
   block is [block_per_job] indices per worker: enough work per
   fork/join to amortize the barrier, few enough that the buffers stay
   small next to the visited table. (At 2048 the retained buffers
   raised the peak RSS of a two-job tolerance sweep by about 2 MB; 512
   cost no measurable time on a 2-core host.) Chunks follow [Pool]'s
   default split (about 8 per worker), so uneven per-index cost still
   balances. *)

type t = { mutable bufs : Ivec.t array }

let block_per_job = 512

let create () = { bufs = [||] }
let bytes t = Array.fold_left (fun n b -> n + Ivec.bytes b) 0 t.bufs

let ensure t n =
  let have = Array.length t.bufs in
  if have < n then
    t.bufs <- Array.init n (fun i -> if i < have then t.bufs.(i) else Ivec.create ())

let round t pool ~n ~expand ~commit =
  let jobs = Pool.jobs pool in
  let block = block_per_job * jobs in
  let base = ref 0 in
  while !base < n do
    let lo = !base in
    let len = min block (n - lo) in
    let chunk = max 1 (len / (8 * jobs)) in
    let n_chunks = (len + chunk - 1) / chunk in
    ensure t n_chunks;
    let bufs = t.bufs in
    for c = 0 to n_chunks - 1 do
      Ivec.clear bufs.(c)
    done;
    (* a chunk's buffer is the one at its first index; a single-call
       range (one job, or a block within one chunk) fills buffer 0 *)
    Pool.parallel_for ~chunk pool ~n:len (fun ~worker a b ->
        let out = bufs.(a / chunk) in
        for i = lo + a to lo + b - 1 do
          expand ~worker out i
        done);
    for c = 0 to n_chunks - 1 do
      commit bufs.(c)
    done;
    base := lo + len
  done
