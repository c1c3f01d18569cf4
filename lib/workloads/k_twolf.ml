(* twolf-like kernel: simulated-annealing placement flavour.

   Memory-reference character being imitated: repeated evaluation of wire
   costs over heap cell records with global annealing temperature and
   penalty knobs re-read in the inner loop across penalty-table stores
   through a selected cursor. *)

let source = {|
struct site { int row; int col; int cap; struct site* link; };

struct site* sites[4096];
int penalty[128];
int* pen_ptr[8];

int temperature;   // hot scalar: annealing temperature
int row_penalty;   // hot scalar
int checksum;

int n_sites;       // input
int n_steps;       // input
int layout[8192];  // input
int picks[8192];   // input

void build() {
  int i;
  for (i = 0; i < n_sites; i = i + 1) {
    struct site* s = malloc(32);
    s->row = layout[(2 * i) % 8192] % 32;
    s->col = layout[(2 * i + 1) % 8192] % 256;
    s->cap = 2 + (i % 3);
    s->link = 0;
    sites[i] = s;
  }
  for (i = 1; i < n_sites; i = i + 1) {
    sites[i]->link = sites[picks[i % 8192] % i];
  }
  for (i = 0; i < 7; i = i + 1) { pen_ptr[i] = &penalty[i * 16]; }
  pen_ptr[7] = &temperature;   // the resident that poisons the analysis
}

int step_cost(int s1, int s2, int step) {
  struct site* a = sites[s1];
  struct site* b = sites[s2];
  int* cursor = pen_ptr[step % 7];
  // temperature is read, a penalty store intervenes, temperature re-read
  int t = temperature;
  int d = (a->row - b->row) * (a->row - b->row) + (a->col - b->col);
  *cursor = *cursor + d;
  int accept = d * 16 < temperature + t ? 1 : 0;
  if (accept == 1) {
    int r = a->row;
    a->row = b->row;
    b->row = r;
    checksum = checksum + d;
  }
  // chase the link with field re-reads
  struct site* l = a->link;
  if (l != 0) {
    int rr = l->row;
    *cursor = *cursor + rr;
    checksum = checksum + l->row + row_penalty;
  }
  return d;
}

int main() {
  build();
  temperature = 4096;
  row_penalty = 3;
  int step;
  int acc = 0;
  for (step = 0; step < n_steps; step = step + 1) {
    int s1 = picks[step % 8192] % n_sites;
    int s2 = picks[(step + 31) % 8192] % n_sites;
    if (s1 < 0) { s1 = -s1; }
    if (s2 < 0) { s2 = -s2; }
    acc = acc + step_cost(s1, s2, step);
    if ((step & 255) == 255) { temperature = temperature - (temperature / 64); }
  }
  print_int(checksum + acc);
  print_int(temperature);
  return 0;
}
|}

let workload : Srp_driver.Workload.t =
  { name = "twolf";
    description = "annealing placement: temperature re-read across penalty-cursor stores";
    source;
    train =
      Srp_driver.Workload.input
        [ ("n_sites", Input_gen.scalar_int 400);
          ("n_steps", Input_gen.scalar_int 10000);
          ("layout", Input_gen.ints ~seed:151 ~n:8192 ~lo:0 ~hi:65535);
          ("picks", Input_gen.ints ~seed:152 ~n:8192 ~lo:0 ~hi:1000000) ];
    ref_ =
      Srp_driver.Workload.input
        [ ("n_sites", Input_gen.scalar_int 2500);
          ("n_steps", Input_gen.scalar_int 90000);
          ("layout", Input_gen.ints ~seed:251 ~n:8192 ~lo:0 ~hi:65535);
          ("picks", Input_gen.ints ~seed:252 ~n:8192 ~lo:0 ~hi:1000000) ] }
