package repro.sampler

/** Executable forms of the paper's theoretical results (§III-B, §III-C,
  * Appendix A), used by tests to check the implementation against the
  * theory.
  */
object Theory {

  /** Lemma 1: any discrete distribution over n outcomes has max >= 1/n. */
  def lemma1Holds(pi: Seq[Double]): Boolean = pi.max >= 1.0 / pi.size - 1e-12

  /** Theorem 2's geometric-convergence coefficient a = 1 / (deg * pi_max)
    * for the uniform conditional pmf q(y|x) = 1/deg. In (0, 1] with
    * a = 1 exactly for the uniform target.
    */
  def theorem2Coefficient(pi: Seq[Double]): Double = 1.0 / (pi.size * pi.max)

  /** Theorem 2's premise q(y|x) >= a * pi(y) for the uniform proposal. */
  def theorem2PremiseHolds(pi: Seq[Double]): Boolean = {
    val a = theorem2Coefficient(pi)
    pi.forall(p => 1.0 / pi.size >= a * p - 1e-12)
  }

  /** Theorem 1's convergence-rate coefficients: kappa for the high-weight
    * initial distribution (Eq. 15) and for random init (Eq. 16).
    */
  def kappaHighWeight(piMax: Double, t: Int): Double =
    math.max(1.0 / (t * piMax) - 1.0, 1.0)

  def kappaRandom(n: Int, piMax: Double, piMin: Double): Double =
    math.max(1.0 - 1.0 / (n * piMax), 1.0 / (n * piMin) - 1.0)

  /** Theorem 3 / Eq. 12: the condition under which high-weight
    * initialization converges faster than random initialization, for a
    * target with n outcomes, t of which attain piMax.
    */
  def highWeightBetter(n: Int, t: Int, piMax: Double, piMin: Double): Boolean =
    (piMax < 1.0 / (2 * t) && piMax / piMin > n.toDouble / t) ||
      (piMax >= 1.0 / (2 * t) && piMin < 1.0 / (2 * n))
}
