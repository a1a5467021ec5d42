"""STEP_PS: the cost of one step of every route, in picoseconds.

Every chooser prices its routes from closed forms, as steps times these
figures, before it builds anything, and takes min(costs, key=costs.get):
the route listed first wins a tie.  Only the ratios within a chooser move
a pick (series = 6 table, lucy = 15 sieve, enclosure = 120 walk steps,
pair = 3/4 and dot = 25/6 table steps).
Best of several runs on a 2-vCPU machine, Python 3.11 (medians of nine
for the sieve and Lucy):

  table      a big-int addition of the Euler quotient or the coin DP:
             52-80 ns at limits 500 to 50000
  series     per N(n)^2 of Rademacher's series in decimal: 0.9-1.4 us at
             n = 111 to 5000 (from 210 to 1000 the table is up to 0.7 ms
             cheaper), 360-400 ns at 5 * 10**4 to 10**6, 830 ns at 10**7
             (1.30 s), where the table still prices at 5500 times the series.
             geo:1000:50000:2.5 prices its table and six sums at 1.09 s and
             15 ms; they took 1 s and 19 ms
  sieve      per integer of a fresh sieve: 3-4 ns to 10**6, 7.1 ns to 10**7
             and 12.2 ns to 2 * 10**7, as its flags leave the CPU caches
  lucy       per x^(3/4) of _lucy(x): 172, 133 and 112 ns at 10**6, 10**7
             and 10**8, 19 and 11 sieve steps at 10**7 and 2 * 10**7, and
             15 lies between.  Near the break-even the times differ little,
             and Lucy holds O(sqrt(x)) memory, the sieve a byte per integer
  walk       per M^2 of tauberian_probe's walk to M, a float at every n:
             1.3-1.8 ns at M = 2000 to 20000
  enclosure  per n of _enclosed_mean(n): 80-280 ns at n = 2000 to 10**6
             (mod:2:1, the primes, all), so 100-200 walk steps; both
             routes give the same floats, so it moves only the time
  pair       one small-int step of the split's q: 38-44 ns per step at
             N = 5000 to 50000 (the primes, mod:5:1,4, mod:7:2,3,6), up
             to 74 ns at N = 500, where one bisect per part weighs more
  dot        one product T_M[n - j] * q(j) of the split: 150-340 ns at
             N = 500 to 50000, as the counts grow with N.  The primes on
             2000,10000,20000 priced their split at 1.05 s against 2.71 s
             for the table (an upper bound: N * A(N) additions); they
             took 0.97-1.03 s and 1.62-1.71 s
"""

STEP_PS = {"table": 60_000, "series": 360_000, "sieve": 8_000,
           "lucy": 120_000, "walk": 1_500, "enclosure": 180_000,
           "pair": 45_000, "dot": 250_000}
