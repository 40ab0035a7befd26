type inline_mode = Inline_none | Inline_static | Inline_profile

type t = {
  opt_level : int;
  inline_mode : inline_mode;
  probes_strong : bool;
  verify_between_passes : bool;
}

let hot_count = 32L

let o0 =
  {
    opt_level = 0;
    inline_mode = Inline_none;
    probes_strong = false;
    verify_between_passes = false;
  }

let o2 = { o0 with opt_level = 2; inline_mode = Inline_profile }
let o2_nopgo = { o2 with inline_mode = Inline_static }
