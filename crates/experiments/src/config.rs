//! Command-line / environment configuration shared by all experiment
//! binaries.

/// Configuration for a reproduction run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Number of Monte-Carlo replications (the paper uses 500).
    pub replications: usize,
    /// Sample size per replication (the paper uses 2¹⁰).
    pub sample_size: usize,
    /// Base seed; every replication derives an independent stream from it.
    pub seed: u64,
    /// Number of worker threads.
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            replications: 100,
            sample_size: 1 << 10,
            seed: 20060315,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        }
    }
}

impl ExperimentConfig {
    /// Parses a configuration from command-line style arguments.
    ///
    /// Recognised flags: `--reps N`, `--n N`, `--seed N`, `--threads N`,
    /// `--quick` (10 replications), `--full` (the paper's 500
    /// replications). An unknown flag, or a flag whose value is missing
    /// or not an unsigned integer, is an error: a typo must not fall back
    /// to the defaults silently.
    pub fn from_args<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut config = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let flag = arg.as_ref();
            let mut value = || {
                let raw = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
                let raw = raw.as_ref();
                raw.parse::<u64>()
                    .map_err(|e| format!("{flag}: {e} (got {raw:?})"))
            };
            match flag {
                "--reps" => config.replications = value()? as usize,
                "--n" => config.sample_size = (value()? as usize).max(4),
                "--seed" => config.seed = value()?,
                "--threads" => config.threads = (value()? as usize).max(1),
                "--quick" => config.replications = 10,
                "--full" => config.replications = 500,
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(config)
    }

    /// Parses the configuration from the process arguments. On an error
    /// it prints the message and the usage to stderr and exits with
    /// status 2.
    pub fn from_env() -> Self {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        Self::from_args(args).unwrap_or_else(|message| {
            let program = std::path::Path::new(&program)
                .file_name()
                .map_or("experiment".into(), |name| name.to_string_lossy());
            eprintln!("{program}: {message}");
            eprintln!(
                "usage: {program} [--reps N] [--n N] [--seed N] [--threads N] [--quick | --full]"
            );
            std::process::exit(2)
        })
    }

    /// A copy with a different replication count.
    pub fn with_replications(mut self, replications: usize) -> Self {
        self.replications = replications;
        self
    }

    /// A copy with a different sample size.
    pub fn with_sample_size(mut self, sample_size: usize) -> Self {
        self.sample_size = sample_size;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sensible() {
        let c = ExperimentConfig::default();
        assert_eq!(c.sample_size, 1024);
        assert!(c.replications > 0);
        assert!(c.threads >= 1);
    }

    #[test]
    fn flags_are_parsed() {
        let c = ExperimentConfig::from_args(["--reps", "42", "--n", "256", "--seed", "7"]).unwrap();
        assert_eq!(c.replications, 42);
        assert_eq!(c.sample_size, 256);
        assert_eq!(c.seed, 7);
        let quick = ExperimentConfig::from_args(["--quick"]).unwrap();
        assert_eq!(quick.replications, 10);
        let full = ExperimentConfig::from_args(["--full"]).unwrap();
        assert_eq!(full.replications, 500);
        let threads = ExperimentConfig::from_args(["--threads", "3"]).unwrap();
        assert_eq!(threads.threads, 3);
        assert_eq!(
            ExperimentConfig::from_args(std::iter::empty::<&str>()).unwrap(),
            ExperimentConfig::default()
        );
    }

    #[test]
    fn unknown_flags_and_missing_values_are_rejected() {
        let reject = |args: &[&str], needle: &str| {
            let message = ExperimentConfig::from_args(args).unwrap_err();
            assert!(message.contains(needle), "{args:?}: {message}");
        };
        reject(&["--whatever", "--reps"], "unknown flag \"--whatever\"");
        reject(&["--reps"], "--reps needs a value");
        reject(
            &["--threads", "3", "--other", "9"],
            "unknown flag \"--other\"",
        );
        reject(&["--n", "lots"], "--n: ");
        reject(&["--seed", "-1"], "--seed: ");
        reject(&["--reps", "--quick"], "--reps: ");
    }

    #[test]
    fn builder_helpers() {
        let c = ExperimentConfig::default()
            .with_replications(5)
            .with_sample_size(128);
        assert_eq!(c.replications, 5);
        assert_eq!(c.sample_size, 128);
    }
}
