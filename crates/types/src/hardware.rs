//! Hardware descriptions for heterogeneous edge nodes.

use std::fmt;

use armada_json::{FromJson, Json, JsonError, ToJson};

use crate::time::SimDuration;

/// The administrative class of an edge node, mirroring the paper's
/// resource taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// A capacity-constrained, unreliable volunteer machine (laptop/PC).
    Volunteer,
    /// A dedicated edge instance (e.g. AWS Local Zone VM): reliable but
    /// limited in point-of-presence.
    Dedicated,
    /// A traditional cloud instance: plentiful but far away.
    Cloud,
}

impl fmt::Display for NodeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeClass::Volunteer => "volunteer",
            NodeClass::Dedicated => "dedicated",
            NodeClass::Cloud => "cloud",
        };
        f.write_str(s)
    }
}

/// Static hardware description of an edge node.
///
/// `base_frame_ms` is the measured wall-clock time to process one standard
/// application frame (the paper's AR object-detection frame) with no
/// contention — the "Processing" column of Table II.
///
/// # Examples
///
/// ```
/// use armada_types::HardwareProfile;
///
/// let v1 = HardwareProfile::new("Intel Core i7-9700", 8, 24.0);
/// assert_eq!(v1.cores(), 8);
/// assert_eq!(v1.base_frame_time().as_millis_f64(), 24.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareProfile {
    processor: String,
    cores: u32,
    base_frame_ms: f64,
    concurrency: u32,
}

impl HardwareProfile {
    /// Creates a profile.
    ///
    /// The *concurrency* — how many frames the node executes in
    /// parallel at full speed — defaults to 1: the AR object-detection
    /// workload parallelises each frame across all cores, which is why
    /// Table II's 8-core V1 is only ~2× faster per frame than the
    /// 2-core V5. Use [`HardwareProfile::with_concurrency`] for nodes
    /// that pipeline several frames (e.g. an elastic cloud region).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `base_frame_ms` is not strictly
    /// positive and finite — a node that processes frames instantly or
    /// never would break the contention model.
    pub fn new(processor: impl Into<String>, cores: u32, base_frame_ms: f64) -> Self {
        assert!(cores > 0, "a node must have at least one core");
        assert!(
            base_frame_ms.is_finite() && base_frame_ms > 0.0,
            "base frame time must be positive and finite"
        );
        HardwareProfile {
            processor: processor.into(),
            cores,
            base_frame_ms,
            concurrency: 1,
        }
    }

    /// Sets how many frames execute concurrently at full speed.
    ///
    /// # Panics
    ///
    /// Panics if `concurrency` is zero.
    pub fn with_concurrency(mut self, concurrency: u32) -> Self {
        assert!(concurrency > 0, "concurrency must be at least 1");
        self.concurrency = concurrency;
        self
    }

    /// Number of frames this node executes in parallel at full speed.
    pub fn concurrency(&self) -> u32 {
        self.concurrency
    }

    /// Peak frame throughput: `concurrency / base_frame_time`, in
    /// frames per second.
    pub fn capacity_fps(&self) -> f64 {
        self.concurrency as f64 / (self.base_frame_ms / 1_000.0)
    }

    /// Human-readable processor name.
    pub fn processor(&self) -> &str {
        &self.processor
    }

    /// Number of physical cores available to the edge service.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Uncontended single-frame processing time.
    pub fn base_frame_time(&self) -> SimDuration {
        SimDuration::from_millis_f64(self.base_frame_ms)
    }

    /// Uncontended single-frame processing time in milliseconds.
    pub fn base_frame_ms(&self) -> f64 {
        self.base_frame_ms
    }
}

impl fmt::Display for HardwareProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} cores, {:.0}ms/frame)",
            self.processor, self.cores, self.base_frame_ms
        )
    }
}

/// The hardware roster of the paper's real-world experiment (Table II):
/// five volunteer laptops `V1..V5`, four AWS Local Zone instances
/// `D6..D9`, and the closest-cloud reference.
///
/// Returned as `(label, class, profile)` triples in table order.
pub fn table2_profiles() -> Vec<(String, NodeClass, HardwareProfile)> {
    use NodeClass::*;
    // Frame concurrency ≈ cores/2: the detector parallelises one frame
    // across a few cores, leaving the rest to pipeline further frames.
    let mut out = vec![
        (
            "V1".into(),
            Volunteer,
            HardwareProfile::new("Intel Core i7-9700", 8, 24.0).with_concurrency(4),
        ),
        (
            "V2".into(),
            Volunteer,
            HardwareProfile::new("Intel Core i7-2720", 6, 32.0).with_concurrency(3),
        ),
        (
            "V3".into(),
            Volunteer,
            HardwareProfile::new("Intel Core i9-8950HK", 6, 31.0).with_concurrency(3),
        ),
        (
            "V4".into(),
            Volunteer,
            HardwareProfile::new("Intel Core i5-8250U", 4, 45.0).with_concurrency(2),
        ),
        (
            "V5".into(),
            Volunteer,
            HardwareProfile::new("Intel Core i5-5250U", 2, 49.0),
        ),
    ];
    for i in 6..=9 {
        // Burstable t3 instances throttle under sustained load: one
        // frame at a time is what the paper's overload behaviour implies
        // (dedicated-only collapses well before 15 users).
        out.push((
            format!("D{i}"),
            Dedicated,
            HardwareProfile::new("AWS Local Zone t3.xlarge", 4, 30.0),
        ));
    }
    // The cloud region auto-scales: model it as effectively elastic
    // (many frames in parallel) so only its WAN RTT penalises it.
    out.push((
        "Cloud".into(),
        Cloud,
        HardwareProfile::new("AWS EC2 t3.xlarge", 4, 30.0).with_concurrency(32),
    ));
    out
}

impl ToJson for NodeClass {
    fn to_json(&self) -> Json {
        let name = match self {
            NodeClass::Volunteer => "Volunteer",
            NodeClass::Dedicated => "Dedicated",
            NodeClass::Cloud => "Cloud",
        };
        Json::Str(name.to_owned())
    }
}

impl FromJson for NodeClass {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_str() {
            Some("Volunteer") => Ok(NodeClass::Volunteer),
            Some("Dedicated") => Ok(NodeClass::Dedicated),
            Some("Cloud") => Ok(NodeClass::Cloud),
            _ => Err(JsonError::new("NodeClass: unknown variant")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let profiles = table2_profiles();
        assert_eq!(profiles.len(), 10);
        let (label, class, v1) = &profiles[0];
        assert_eq!(label, "V1");
        assert_eq!(*class, NodeClass::Volunteer);
        assert_eq!(v1.cores(), 8);
        assert_eq!(v1.base_frame_ms(), 24.0);
        let volunteer_count = profiles
            .iter()
            .filter(|(_, c, _)| *c == NodeClass::Volunteer)
            .count();
        assert_eq!(volunteer_count, 5);
        let (_, _, cloud) = profiles.last().unwrap();
        assert_eq!(cloud.base_frame_ms(), 30.0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = HardwareProfile::new("bogus", 0, 10.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_positive_frame_time_rejected() {
        let _ = HardwareProfile::new("bogus", 4, 0.0);
    }

    #[test]
    fn concurrency_defaults_to_one() {
        let p = HardwareProfile::new("Test CPU", 8, 24.0);
        assert_eq!(p.concurrency(), 1);
        assert!((p.capacity_fps() - 1000.0 / 24.0).abs() < 1e-9);
        let p = p.with_concurrency(4);
        assert_eq!(p.concurrency(), 4);
        assert!((p.capacity_fps() - 4000.0 / 24.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "concurrency must be at least 1")]
    fn zero_concurrency_rejected() {
        let _ = HardwareProfile::new("Test CPU", 4, 30.0).with_concurrency(0);
    }

    #[test]
    fn cloud_is_elastic_in_table2() {
        let profiles = table2_profiles();
        let (_, _, cloud) = profiles.last().unwrap();
        assert!(cloud.concurrency() > 8, "cloud must be modelled as elastic");
    }

    #[test]
    fn display_is_informative() {
        let p = HardwareProfile::new("Test CPU", 4, 30.0);
        assert_eq!(p.to_string(), "Test CPU (4 cores, 30ms/frame)");
        assert_eq!(NodeClass::Dedicated.to_string(), "dedicated");
    }
}
