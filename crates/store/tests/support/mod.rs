pub mod legacy;
