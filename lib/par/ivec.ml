type t = { mutable a : int array; mutable len : int }

let create () = { a = Array.make 64 0; len = 0 }

let push v x =
  if v.len = Array.length v.a then begin
    let b = Array.make (2 * v.len) 0 in
    Array.blit v.a 0 b 0 v.len;
    v.a <- b
  end;
  v.a.(v.len) <- x;
  let i = v.len in
  v.len <- v.len + 1;
  i

let len v = v.len
let get v i = v.a.(i)
let clear v = v.len <- 0

let swap u v =
  let a = u.a and len = u.len in
  u.a <- v.a;
  u.len <- v.len;
  v.a <- a;
  v.len <- len

let to_array v = Array.sub v.a 0 v.len

let bytes v = 8 * Array.length v.a
