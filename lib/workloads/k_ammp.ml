(* ammp-like kernel: molecular dynamics flavour (floating point).

   Memory-reference character being imitated: atom records with double
   coordinates chased through a neighbour list; coordinates are re-read
   around force-accumulator stores that go through a cursor table whose
   static points-to set includes the atom heap.  Floating-point loads cost
   9 cycles on the modelled machine, so eliminating reloads buys far more
   here than in the integer kernels — the paper's FP benchmarks (ammp,
   art, equake) show exactly this. *)

let source = {|
struct atom { double x; double y; double z; double q; struct atom* near; };

struct atom* atoms[2048];
double forces[384];
double* fcur[8];

int n_atoms;        // input
int n_steps;        // input
double coords[4096]; // input
int neigh[4096];     // input
double checksum;

void build() {
  int i;
  for (i = 0; i < n_atoms; i = i + 1) {
    struct atom* a = malloc(40);
    a->x = coords[(3 * i) % 4096];
    a->y = coords[(3 * i + 1) % 4096];
    a->z = coords[(3 * i + 2) % 4096];
    a->q = 0.1 + coords[i % 4096] * 0.01;
    a->near = 0;
    atoms[i] = a;
  }
  for (i = 0; i < n_atoms; i = i + 1) {
    atoms[i]->near = atoms[neigh[i % 4096] % n_atoms];
  }
  for (i = 0; i < 7; i = i + 1) { fcur[i] = &forces[i * 48]; }
  fcur[7] = &(atoms[0]->x);
}

double pair_force(struct atom* a, int step) {
  struct atom* b = a->near;
  double* cursor = fcur[step % 7];
  // coordinates read, force store intervenes, coordinates re-read
  double dx = a->x - b->x;
  double dy = a->y - b->y;
  double dz = a->z - b->z;
  double r2 = dx * dx + dy * dy + dz * dz + 0.25;
  *cursor = *cursor + r2;
  double e = a->q * b->q * (2.0 - r2 * 0.125);
  double vir = a->x * dx + a->y * dy + a->z * dz;
  double damp = (dx + dy) * (dy + dz) * 0.5 - (dx - dz) * 0.25;
  double sw = damp * damp * 0.01 + (r2 + damp) * (r2 - damp) * 0.003;
  return e + vir * 0.001 + sw * (1.0 + e * 0.125);
}

int main() {
  build();
  int s;
  int i;
  for (s = 0; s < n_steps; s = s + 1) {
    for (i = 0; i < n_atoms; i = i + 1) {
      checksum = checksum + pair_force(atoms[i], s + i);
    }
  }
  print_float(checksum);
  print_float(forces[48]);
  return 0;
}
|}

let workload : Srp_driver.Workload.t =
  { name = "ammp";
    description = "molecular dynamics pair forces: double coordinates re-read across force-cursor stores";
    source;
    train =
      Srp_driver.Workload.input
        [ ("n_atoms", Input_gen.scalar_int 300);
          ("n_steps", Input_gen.scalar_int 6);
          ("coords", Input_gen.floats ~seed:171 ~n:4096 ~lo:(-4.0) ~hi:4.0);
          ("neigh", Input_gen.ints ~seed:172 ~n:4096 ~lo:0 ~hi:1000000) ];
    ref_ =
      Srp_driver.Workload.input
        [ ("n_atoms", Input_gen.scalar_int 1500);
          ("n_steps", Input_gen.scalar_int 40);
          ("coords", Input_gen.floats ~seed:271 ~n:4096 ~lo:(-4.0) ~hi:4.0);
          ("neigh", Input_gen.ints ~seed:272 ~n:4096 ~lo:0 ~hi:1000000) ] }
