(* gzip-like kernel: LZ77 window compression flavour.

   Memory-reference character being imitated: hash-chain matching over a
   sliding window, with global compression state (match length cut-offs,
   strategy knobs) that the compiler cannot keep in registers because a
   tuning pointer may alias it.  The tuning pointer genuinely does hit the
   hot state occasionally (the paper measures a ~5% mis-speculation ratio
   on gzip, the highest of all benchmarks) — driven here by the [tune_sel]
   input flags. *)

let source = {|
int window[16384];
int head[1024];
int prev[16384];
int scratch[64];

int max_chain;     // hot scalar: loaded every probe
int good_match;    // hot scalar
int nice_match;    // hot scalar
int* tune_ptr;     // may point at the hot scalars or at scratch
int checksum;

int input_len;           // scalar input
int tune_sel[512];       // 1 => this round really retunes a hot scalar
int data[16384];         // input bytes

int hash3(int pos) {
  int h = data[pos] * 31 + data[pos + 1] * 7 + data[pos + 2];
  if (h < 0) { h = -h; }
  return h % 1024;
}

int longest_match(int pos, int cur) {
  int chain = max_chain;        // register candidate
  int best = 2;
  while (cur > 0 && chain > 0) {
    int* cp = &window[cur % 16384];
    int* pp = &window[pos % 16384];
    int len = 0;
    while (len < 24 && pos + len < input_len && *cp == *pp) {
      // tuning feedback between the probe reads: the window values are
      // re-read after this store, and one (never-taken) retuning path
      // points the tuning pointer into the window, so the compiler must
      // assume the store clobbers the probes
      *tune_ptr = *tune_ptr + 1;
      len = len + 1 + (*cp - *pp);
      cp = cp + 1;
      pp = pp + 1;
    }
    if (len > best) {
      best = len;
      *tune_ptr = best;
      if (best >= nice_match) { chain = 0; }
    }
    chain = chain - 1;
    // chained probes reload max_chain-family state each round in real
    // gzip because the tuning pointer may alias it
    if (best < good_match) { chain = chain - (max_chain / 64); }
    cur = prev[cur % 16384];
  }
  return best;
}

int main() {
  int pos = 0;
  int round = 0;
  max_chain = 64;
  good_match = 8;
  nice_match = 16;
  tune_ptr = &scratch[0];
  while (pos + 3 < input_len) {
    window[pos % 16384] = data[pos];
    int h = hash3(pos);
    int cand = head[h];
    head[h] = pos;
    prev[pos % 16384] = cand;
    if (cand > 0 && cand < pos) {
      int m = longest_match(pos, cand);
      checksum = checksum + m;
      if (m > 4) { pos = pos + m; } else { pos = pos + 1; }
    } else {
      pos = pos + 1;
    }
    // periodic retuning: mostly writes scratch, sometimes the real knobs
    if ((pos & 63) == 0) {
      if (tune_sel[round % 512] == 1) { tune_ptr = &max_chain; }
      else { tune_ptr = &scratch[round % 64]; }
      if (tune_sel[round % 512] == 2) { tune_ptr = &window[pos % 16384]; }
      *tune_ptr = 48 + (round % 32);
      round = round + 1;
    }
  }
  print_int(checksum);
  print_int(max_chain);
  return 0;
}
|}

let workload : Srp_driver.Workload.t =
  { name = "gzip";
    description = "LZ77 hash-chain matching with occasionally-aliased tuning state";
    source;
    train =
      Srp_driver.Workload.input
        [ ("input_len", Input_gen.scalar_int 3000);
          ("data", Input_gen.ints ~seed:101 ~n:16384 ~lo:0 ~hi:15);
          ("tune_sel", Input_gen.flags ~seed:102 ~n:512 ~p:0.0) ];
    ref_ =
      Srp_driver.Workload.input
        [ ("input_len", Input_gen.scalar_int 14000);
          ("data", Input_gen.ints ~seed:201 ~n:16384 ~lo:0 ~hi:15);
          ("tune_sel", Input_gen.flags ~seed:202 ~n:512 ~p:0.22) ] }
