let epoch = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6
