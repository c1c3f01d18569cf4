(* equake-like kernel: seismic wave propagation flavour (floating point).

   Memory-reference character being imitated: a sparse matrix-vector
   product over an archetypal CSR structure, with stiffness values and
   displacement entries re-read around excitation updates through a
   node-pointer table. *)

let source = {|
double stiff[24576];
double disp[4096];
double vel[4096];
double exc[64];
double* ecur[8];

int n_rows;        // input
int n_steps;       // input
int colidx[24576]; // input
int rowlen[4096];  // input
double kvals[24576]; // input
double checksum;

void setup() {
  int i;
  for (i = 0; i < 24576; i = i + 1) { stiff[i] = kvals[i]; }
  for (i = 0; i < 7; i = i + 1) { ecur[i] = &exc[i * 8]; }
  ecur[7] = &disp[1];
  for (i = 0; i < n_rows; i = i + 1) { disp[i] = 0.001 * (i % 97); }
}

double smvp_row(int row, int step) {
  double* cursor = ecur[(row + step) % 7];
  int len = 4 + rowlen[row % 4096] % 12;
  int base = (row * 6) % 24000;
  double sum = 0.0;
  int j;
  for (j = 0; j < len; j = j + 1) {
    int col = colidx[(base + j) % 24576] % n_rows;
    if (col < 0) { col = -col; }
    double k = stiff[(base + j) % 24576];
    double d = disp[col];
    // excitation update: statically may alias disp and stiff
    *cursor = *cursor + k * d;
    sum = sum + k * disp[col] + stiff[(base + j) % 24576] * 0.5;
  }
  return sum;
}

int main() {
  setup();
  int s;
  int r;
  for (s = 0; s < n_steps; s = s + 1) {
    for (r = 0; r < n_rows; r = r + 1) {
      double a = smvp_row(r, s);
      vel[r] = vel[r] + a * 0.01;
      checksum = checksum + a;
    }
  }
  print_float(checksum);
  print_float(vel[7]);
  return 0;
}
|}

let workload : Srp_driver.Workload.t =
  { name = "equake";
    description = "sparse matvec: stiffness and displacement re-read across excitation-cursor stores";
    source;
    train =
      Srp_driver.Workload.input
        [ ("n_rows", Input_gen.scalar_int 200);
          ("n_steps", Input_gen.scalar_int 6);
          ("colidx", Input_gen.ints ~seed:191 ~n:24576 ~lo:0 ~hi:1000000);
          ("rowlen", Input_gen.ints ~seed:192 ~n:4096 ~lo:0 ~hi:1000);
          ("kvals", Input_gen.floats ~seed:193 ~n:24576 ~lo:(-1.0) ~hi:1.0) ];
    ref_ =
      Srp_driver.Workload.input
        [ ("n_rows", Input_gen.scalar_int 1800);
          ("n_steps", Input_gen.scalar_int 24);
          ("colidx", Input_gen.ints ~seed:291 ~n:24576 ~lo:0 ~hi:1000000);
          ("rowlen", Input_gen.ints ~seed:292 ~n:4096 ~lo:0 ~hi:1000);
          ("kvals", Input_gen.floats ~seed:293 ~n:24576 ~lo:(-1.0) ~hi:1.0) ] }
