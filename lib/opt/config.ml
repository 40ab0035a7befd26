type inline_mode = Inline_none | Inline_static | Inline_profile

type t = {
  optimize : bool;
  inline_mode : inline_mode;
  probes_strong : bool;
  verify_between_passes : bool;
}

let hot_count = 32L

let o0 =
  {
    optimize = false;
    inline_mode = Inline_none;
    probes_strong = false;
    verify_between_passes = false;
  }

let o2 = { o0 with optimize = true; inline_mode = Inline_profile }
let o2_nopgo = { o2 with inline_mode = Inline_static }
