# Stand-in external CADx scorer for the volumes workload: it reads the patch
# header path trifuse writes on stdin and prints two fixed probabilities, so
# the measured cost is trifuse's own (gating, resampling, patch write, spawn).
read -r header
echo "0.35 0.25"
